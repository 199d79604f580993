package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rankfair"
	"rankfair/internal/service"
	"rankfair/internal/store"
	"rankfair/internal/stream"
)

// span is one timed call. HTTP ops are root spans; the layer calls the
// benchmark replays for an op are its children and share its ID as their
// Parent. OnPath marks a child the daemon makes while serving the op, so
// it counts against the op's service self time; off-path children (the
// facade encoder next to the service's own) are reported but not
// subtracted.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	OnPath  bool    `json:"on_path"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent int, start time.Time, d time.Duration, onPath bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, OnPath: onPath,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(d.Nanoseconds()) / 1e3,
	})
	return id
}

// timed runs f as a child span of parent; with a nil tracer it only runs f.
func timed[T any](t *tracer, name string, parent int, onPath bool, f func() (T, error)) (T, error) {
	if t == nil {
		return f()
	}
	t0 := time.Now()
	v, err := f()
	t.add(name, parent, t0, time.Since(t0), onPath)
	return v, err
}

// searchCounts is one replayed search's work, from its report's stats.
type searchCounts struct {
	nodes, intersections, bitmapPasses, prunedDominated, groups int64
}

// chain is the replay's copy of one uploaded dataset at its latest
// generation.
type chain struct {
	name    string // its dataset name in the replay store
	table   *rankfair.Dataset
	analyst *rankfair.Analyst
	raw     []byte
	hash    string
}

// replay is the in-process side of the benchmark: an Analyst per uploaded
// table, built from the same inputs the daemon received. It produces the
// expected outputs the checks compare against and, when tracing, replays
// each op's layer calls as child spans.
type replay struct {
	p      *Plan
	tr     *tracer
	ranker rankfair.Ranker
	chains []*chain

	// warmJSON holds report-read's set-up reports as the daemon served
	// them; warm holds the replayed set-up reports (traced runs only).
	warmJSON []*rankfair.ReportJSON
	warm     []*rankfair.Report

	searches    []searchCounts
	reportBytes []float64
	indexBytes  int64

	// The benchmark-owned durable store the append replay writes to.
	st      *store.Store
	stDir   string
	stRows  int
	stBytes int64
}

// newReplay prepares the replay; session builds its analysts.
func newReplay(p *Plan, tr *tracer) (*replay, error) {
	ranker, err := rankerSpec.Build()
	if err != nil {
		return nil, err
	}
	return &replay{p: p, tr: tr, ranker: ranker}, nil
}

// session builds the replay analysts afresh for a new session's daemon.
// With a tracer it also times the set-up layers (decode, rank, index).
func (rp *replay) session() error {
	if err := rp.close(); err != nil {
		return err
	}
	rp.chains, rp.warm, rp.warmJSON = nil, nil, nil
	tr := rp.tr
	for t, csv := range rp.p.Tables {
		c := &chain{name: fmt.Sprintf("replay-%d", t), raw: csv, hash: service.HashCSV(csv)}
		var err error
		if c.table, err = timed(tr, "dataset.read_csv", 0, true, func() (*rankfair.Dataset, error) {
			return rankfair.ReadCSV(bytes.NewReader(csv), rp.p.CSVOpts)
		}); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if c.analyst, err = timed(tr, "rank.new", 0, true, func() (*rankfair.Analyst, error) {
			return rankfair.New(c.table, rp.ranker)
		}); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		_, _ = timed(tr, "count.warm", 0, true, func() (struct{}, error) { c.analyst.Warm(); return struct{}{}, nil })
		rp.chains = append(rp.chains, c)
	}
	rp.indexBytes = rp.chains[0].analyst.IndexFootprint()
	return nil
}

func (rp *replay) openStore() error {
	rp.stDir = filepath.Join(workDir, fmt.Sprintf("replay-%d", os.Getpid()))
	if err := os.RemoveAll(rp.stDir); err != nil {
		return err
	}
	st, err := store.Open(rp.stDir)
	if err != nil {
		return fmt.Errorf("replay store: %w", err)
	}
	rp.st = st
	for _, c := range rp.chains {
		if err := st.PutSeed(c.name, c.hash, c.raw, json.RawMessage(`{}`)); err != nil {
			return fmt.Errorf("replay store: %w", err)
		}
	}
	return nil
}

// close closes the replay store, if one is open, and removes it.
func (rp *replay) close() error {
	if rp.st == nil {
		return nil
	}
	st := rp.st
	rp.st = nil
	return errors.Join(st.Close(), os.RemoveAll(rp.stDir))
}

// audit replays an audit's facade calls: DetectCtx and ToJSON (on the
// daemon's path), plus the facade's WriteJSON encoder (off its path).
func (rp *replay) audit(dataset int, params rankfair.AuditParams, parent int) (*rankfair.Report, error) {
	a := rp.chains[dataset].analyst
	rep, err := timed(rp.tr, "core.search", parent, true, func() (*rankfair.Report, error) {
		return a.DetectCtx(context.Background(), params)
	})
	if err != nil {
		return nil, fmt.Errorf("replay audit: %w", err)
	}
	rj, _ := timed(rp.tr, "rankfair.to_json", parent, true, func() (*rankfair.ReportJSON, error) { return rep.ToJSON(), nil })
	c := searchCounts{}
	if st := rj.Stats; st != nil {
		c = searchCounts{st.NodesExpanded, st.PostingIntersections, st.BitmapPasses, st.PrunedDominated, 0}
	}
	for _, kg := range rj.Results {
		c.groups += int64(len(kg.Groups))
	}
	rp.searches = append(rp.searches, c)
	if err := rp.writeJSON(rep, parent); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeJSON times the facade's report encoder.
func (rp *replay) writeJSON(rep *rankfair.Report, parent int) error {
	var buf bytes.Buffer
	if _, err := timed(rp.tr, "rankfair.write_json", parent, false, func() (struct{}, error) { return struct{}{}, rep.WriteJSON(&buf) }); err != nil {
		return err
	}
	rp.reportBytes = append(rp.reportBytes, float64(buf.Len()))
	return nil
}

// explain replays Analyst.Explain for a resolved target.
func (rp *replay) explain(t explainTarget, parent int) error {
	a := rp.chains[0].analyst
	pat, err := a.ParseGroupKey(t.Key)
	if err != nil {
		return err
	}
	_, err = timed(rp.tr, "explain.explain", parent, true, func() (*rankfair.Explanation, error) {
		return a.Explain(pat, t.K, rankfair.ExplainOptions{})
	})
	return err
}

// appendBatch runs the daemon's incremental append path in-process: batch
// parse, Dataset.AppendRows, Analyst.Append and the durable PutAppend.
func (rp *replay) appendBatch(dataset int, batch []byte, parent int) error {
	c := rp.chains[dataset]
	b, err := timed(rp.tr, "stream.parse", parent, true, func() (*stream.Batch, error) { return stream.ParseCSV(batch, c.table, 0) })
	if err != nil {
		return fmt.Errorf("replay append: %w", err)
	}
	nt, err := timed(rp.tr, "dataset.append_rows", parent, true, func() (*rankfair.Dataset, error) { return c.table.AppendRows(b.Records) })
	if err != nil {
		return fmt.Errorf("replay append: %w", err)
	}
	na, err := timed(rp.tr, "stream.analyst_append", parent, true, func() (*rankfair.Analyst, error) { return c.analyst.Append(nt, rp.ranker) })
	if err != nil {
		return fmt.Errorf("replay append: %w", err)
	}
	raw := stream.Concat(c.raw, b.Raw)
	hash := service.HashCSV(raw)
	written := rp.st.Stats().BlobWriteBytes
	if _, err := timed(rp.tr, "store.put_append", parent, true, func() (struct{}, error) {
		return struct{}{}, rp.st.PutAppend(c.name, hash, c.hash, b.Raw, json.RawMessage(`{}`))
	}); err != nil {
		return fmt.Errorf("replay append: %w", err)
	}
	c.table, c.analyst, c.raw, c.hash = nt, na, raw, hash
	rp.stRows += b.Rows()
	rp.stBytes += rp.st.Stats().BlobWriteBytes - written
	return nil
}

// facadeReport is the daemon's report body for params as the facade
// computes it: DetectCtx(...).ToJSON() encoded the way the service
// encodes responses.
func (rp *replay) facadeReport(a *rankfair.Analyst, params rankfair.AuditParams) ([]byte, error) {
	rep, err := a.DetectCtx(context.Background(), params)
	if err != nil {
		return nil, fmt.Errorf("facade audit: %w", err)
	}
	return indentJSON(rep.ToJSON())
}

// facadeExplain is the daemon's explain body for a target as the facade
// computes it.
func (rp *replay) facadeExplain(datasetID string, t explainTarget) ([]byte, error) {
	a := rp.chains[0].analyst
	pat, err := a.ParseGroupKey(t.Key)
	if err != nil {
		return nil, err
	}
	exp, err := a.Explain(pat, t.K, rankfair.ExplainOptions{})
	if err != nil {
		return nil, fmt.Errorf("facade explain: %w", err)
	}
	return indentJSON(service.ExplainResponse{Dataset: datasetID, Group: a.Format(pat), K: t.K, Explanation: exp})
}

// indentJSON encodes v exactly as the service's response writer does.
func indentJSON(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
