package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"rankfair"
	"rankfair/internal/dataset"
	"rankfair/internal/service"
	"rankfair/internal/synth"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wAuditMiss  = "audit-miss"
	wReportRead = "report-read"
)

var workloads = []string{wAuditMiss, wReportRead}

// Op kinds: each is one HTTP request of the closed loop.
const (
	opAudit   = "audit"   // POST /v1/audits?wait=true
	opReport  = "report"  // GET /v1/audits/{id}/report
	opExplain = "explain" // POST /v1/explain
)

// Roles: every workload has one primary and one side op class, each its
// own phase. The end-to-end metrics report each role.
const (
	rolePrimary = "primary"
	roleSide    = "side"
)

// Op is one request of a workload's fixed sequence.
type Op struct {
	Kind string
	Role string
	// Round numbers the op's round within its phase (see Plan.Rounds).
	Round int
	// Dataset indexes Plan.Tables: the dataset the op addresses.
	Dataset int
	// Params is the audit's parameter set (opAudit).
	Params rankfair.AuditParams
	// Target indexes the set-up audit whose report an opReport fetches,
	// or the explain target an opExplain sends (resolved after set-up).
	Target int
}

// Phase is the ops of one class, in Plan.Rounds rounds of the same work.
// Within a round its ops run back to back; the phases of a plan take turns
// round by round, and consecutive rounds are grouped into sessions (see
// Plan.Sessions).
type Phase struct {
	Name string
	Ops  []Op
}

// Warmup is a set-up audit of one uploaded table.
type Warmup struct {
	Dataset int
	Params  rankfair.AuditParams
}

// Plan is everything a run sends, fixed by (workload, seed, seconds)
// before any clock starts.
type Plan struct {
	Workload string
	// Tables are uploaded at set-up, in order; Query is the upload's
	// query string and CSVOpts decodes a table the way it asks the daemon
	// to.
	Tables  [][]byte
	Query   string
	CSVOpts rankfair.CSVOptions
	// Warmups are audited during set-up: one per measured measure and
	// table, or report-read's cached audits.
	Warmups []Warmup
	// ExplainTargets names, per explain target, the set-up audit whose
	// middle (k, group) entry it explains; the runner resolves them against
	// the set-up reports before the clock starts.
	ExplainTargets []int
	Rounds         int
	// Sessions splits the rounds into equal runs of consecutive rounds.
	// Each session boots a fresh daemon and sets it up (the set-ups give
	// setup_s), so the state a daemon keeps (finished jobs with their
	// reports) stays the same size in every run length.
	Sessions int
	Phases   []Phase
}

// roundsPerSecond sets how many rounds a run makes: each phase repeats
// its work once per round, 2 rounds per second of --seconds, and the
// phases take turns round by round. Other tenants of a small shared box
// slow it for seconds at a time; spread over the whole run, every phase
// meets the same mix of quiet and loaded spells.
const roundsPerSecond = 2

// sessions is how many sessions a run's rounds are split into (fewer
// when a run has fewer rounds).
const sessions = 5

// Table shapes. The audits use the paper's German Credit size. prop
// audits use the width where a proportional search costs several times
// its report's encoding, and the k range of the repo's Figure 4-7
// benchmarks, so the reports a session's daemon retains stay small;
// global-upper audits keep BenchmarkExtensionUpper's shape (8 attributes,
// k ∈ [10, 200]). report-read keeps k ∈ [10, 200] for reports of a few
// MB, of which it caches only eight.
const (
	germanRows   = 1000
	searchAttrs  = 14
	reportAttrs  = 12
	narrowAttrs  = 8
	kMax         = 49
	batchRows    = 50 // rows per batch of the append-path probe
	reportAudits = 8  // report-read's cached audits
	tableSeed    = 1  // fixed data; the run seed permutes rows and ops
)

// refSeconds is the default --seconds, the run length BENCHMARK.json asks
// for.
const refSeconds = 25

// rankerSpec is the black-box ranker of every audit: German Credit's
// score, best first.
var rankerSpec = service.RankerSpec{Columns: []service.ColumnKeySpec{{Column: "credit_score", Descending: true}}}

// NewPlan builds a workload's plan. The table content is fixed (tableSeed)
// so every seed does the same search and encoding work; the seed permutes
// the rows, which changes every byte hash and dataset ID but no result,
// and shuffles the op order within each round.
func NewPlan(workload string, seed int64, seconds int) (*Plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{
		Workload: workload,
		// The op count depends on --seconds only, never on the clock, so a
		// faster build does the same work in less time.
		Rounds:   roundsPerSecond * seconds,
		Sessions: min(sessions, roundsPerSecond*seconds),
		Query:    "name=german&all_categorical=true&numeric=credit_score",
		CSVOpts:  rankfair.CSVOptions{AllCategorical: true, NumericColumns: []string{"credit_score"}},
	}
	var err error
	table := func(attrs int) {
		var csv []byte
		if err == nil {
			csv, err = germanCSV(germanRows, attrs, rng)
			p.Tables = append(p.Tables, csv)
		}
	}
	switch workload {
	case wAuditMiss:
		table(searchAttrs)
		table(narrowAttrs)
		p.Warmups = []Warmup{{0, propParams(0)}, {1, globalUpperParams(0)}}
		p.Phases = []Phase{
			auditPhase(p, "prop", rolePrimary, 0, 8, propParams, rng),
			auditPhase(p, "global-upper", roleSide, 1, 3, globalUpperParams, rng),
		}
	case wReportRead:
		table(reportAttrs)
		// Eight cached reports of the same content (their α differ only
		// below the counts' resolution), so every fetch encodes the same
		// bytes; one explain target per report, the group in the middle of
		// its (k, group) entries, so every explain does the same work.
		for i := 0; i < reportAudits; i++ {
			params := propParams(i)
			params.KMax = 200
			p.Warmups = append(p.Warmups, Warmup{0, params})
			p.ExplainTargets = append(p.ExplainTargets, i)
		}
		p.Phases = []Phase{
			cyclePhase(p, "report", rolePrimary, opReport, reportAudits, reportAudits, rng),
			cyclePhase(p, "explain", roleSide, opExplain, 2*len(p.ExplainTargets), len(p.ExplainTargets), rng),
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// auditPhase builds rounds of n audits of one measure on one dataset; set
// i is params(i), with set 0 left to the warm-up.
func auditPhase(p *Plan, name, role string, dataset, n int, params func(i int) rankfair.AuditParams, rng *rand.Rand) Phase {
	ph := Phase{Name: name}
	for r := 0; r < p.Rounds; r++ {
		round := make([]Op, n)
		for i := range round {
			round[i] = Op{Kind: opAudit, Role: role, Round: r, Dataset: dataset, Params: params(1 + r*n + i)}
		}
		rng.Shuffle(n, func(i, j int) { round[i], round[j] = round[j], round[i] })
		ph.Ops = append(ph.Ops, round...)
	}
	return ph
}

// cyclePhase builds rounds of n ops that cycle over the targets, in
// seeded order.
func cyclePhase(p *Plan, name, role, kind string, n, targets int, rng *rand.Rand) Phase {
	ph := Phase{Name: name}
	for r := 0; r < p.Rounds; r++ {
		for _, i := range rng.Perm(n) {
			ph.Ops = append(ph.Ops, Op{Kind: kind, Role: role, Round: r, Target: i % targets})
		}
	}
	return ph
}

// Parameter sets follow the paper and the repo's Go benchmarks: τs = 50,
// α ≈ 0.8, constant U. Set i differs from every other set in its cache
// key, so every audit of a phase misses the result cache, yet all sets do
// the same work: the α offsets are far below any count's resolution, and
// the upper bound at the last k lies beyond that k, where every value
// gives the same result (no group is over-represented). Raising the last
// bound keeps the sequence non-decreasing, as the bounds require.

func propParams(i int) rankfair.AuditParams {
	return rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 50, KMin: 10, KMax: kMax, Alpha: 0.8 + 1e-9*float64(i)}
}

// globalUpperParams is BenchmarkExtensionUpper's shape: constant U = 8
// over k ∈ [10, 200].
func globalUpperParams(i int) rankfair.AuditParams {
	upper := rankfair.ConstantBounds(10, 200, 8)
	upper[len(upper)-1] = 200 + i
	return rankfair.AuditParams{Measure: rankfair.MeasureGlobalUpper, MinSize: 50, KMin: 10, KMax: 200, Upper: upper}
}

// germanCSV renders the synthetic German Credit table, projected to its
// first attrs categorical attributes plus the ranking score, with its rows
// permuted by rng.
func germanCSV(rows, attrs int, rng *rand.Rand) ([]byte, error) {
	lines, err := germanLines(rows, attrs)
	if err != nil {
		return nil, err
	}
	return join(lines[0], lines[1:], rng.Perm(rows)), nil
}

// germanLines returns the table's CSV lines, header first.
func germanLines(rows, attrs int) ([][]byte, error) {
	b := synth.GermanCredit(rows, tableSeed)
	names := b.Table.CategoricalNames()[:attrs]
	t, err := b.Table.Project(append(names, "credit_score")...)
	if err != nil {
		return nil, err
	}
	var all bytes.Buffer
	if err := dataset.WriteCSV(&all, t); err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(all.Bytes(), []byte("\n"))
	return lines[:len(lines)-1], nil // drop the empty tail after the last newline
}

// join concatenates header and the picked body lines in the given order.
func join(header []byte, body [][]byte, pick []int) []byte {
	out := append([]byte(nil), header...)
	for _, i := range pick {
		out = append(out, body[i]...)
	}
	return out
}
