package main

import (
	"bytes"
	"math"
	"sort"
)

// replayOp replays one measured op's layer calls on the replay analyst,
// as children of the op's HTTP span.
func (r *runner) replayOp(op Op, parent int) error {
	switch op.Kind {
	case opAudit:
		_, err := r.rp.audit(op.Dataset, op.Params, parent)
		return err
	case opReport:
		// The service encodes the cached report itself; the facade's
		// encoder over the same report is timed next to it.
		return r.rp.writeJSON(r.rp.warm[op.Target], parent)
	default: // opExplain
		return r.rp.explain(r.targets[op.Target], parent)
	}
}

// probe times the layers this workload's ops never call, on the
// workload's own inputs, so every run reports the whole ledger: explain
// on groups of the replayed reports (outside report-read), and the append
// path, which no workload's ops call, with batches of the uploaded table's
// own rows. A probe value moves no end-to-end metric of its workload.
func (rp *replay) probe() error {
	if rp.tr == nil {
		return nil
	}
	if !rp.traced("explain.explain") {
		for _, t := range probeTargets(rp) {
			if err := rp.explain(t, 0); err != nil {
				return err
			}
		}
	}
	if err := rp.openStore(); err != nil {
		return err
	}
	lines := bytes.SplitAfter(rp.p.Tables[0], []byte("\n"))[1:]
	for b := 0; b < 10; b++ {
		if err := rp.appendBatch(0, join(nil, lines, seq(b*batchRows, batchRows)), 0); err != nil {
			return err
		}
	}
	return nil
}

func (rp *replay) traced(name string) bool {
	for _, s := range rp.tr.spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// probeTargets picks eight groups spread over the replayed reports of
// the first table.
func probeTargets(rp *replay) []explainTarget {
	var entries []explainTarget
	for i, rep := range rp.warm {
		if rp.p.Warmups[i].Dataset != 0 {
			continue // explain runs on the first table's analyst
		}
		for _, kg := range rep.ToJSON().Results {
			for _, g := range kg.Groups {
				entries = append(entries, explainTarget{Key: g.Key, K: kg.K})
			}
		}
	}
	var out []explainTarget
	for j := 0; j < 8 && len(entries) > 0; j++ {
		out = append(out, entries[(j+1)*len(entries)/9])
	}
	return out
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the untraced run's metrics over all measured ops,
// every time adjusted for the host's speed (see hostref.go).
func endToEnd(res *passResult) map[string]metric {
	primary, side := res.adjusted(rolePrimary), res.adjusted(roleSide)
	var busyMS float64
	for _, ms := range append(primary, side...) {
		busyMS += ms
	}
	return map[string]metric{
		"setup_s":     {median(res.adjustedSetups()), "s"},
		"ops_per_s":   {float64(len(res.samples)) / busyMS * 1e3, "1/s"},
		"p50_ms":      {quantile(primary, 0.5), "ms"},
		"side_p50_ms": {quantile(side, 0.5), "ms"},
	}
}

// perLayer computes the per-layer ledger from the traced pass (spans and
// replayed search counts) and the untraced pass (GC, heap, and the
// latencies tracing overhead is measured against).
func perLayer(untraced, traced *passResult) map[string]metric {
	spans := traced.trace.spans
	byName := map[string][]float64{}
	children := map[int]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.DurUS/1e3)
		if s.Parent != 0 && s.OnPath {
			children[s.Parent] += s.DurUS / 1e3
		}
	}
	self := map[string][]float64{}
	for _, s := range spans {
		if s.Parent == 0 && len(s.Name) > 5 && s.Name[:5] == "http." {
			self[s.Name[5:]] = append(self[s.Name[5:]], s.DurUS/1e3-children[s.ID])
		}
	}
	rp := traced.replay
	var sum searchCounts
	for _, c := range rp.searches {
		sum.nodes += c.nodes
		sum.intersections += c.intersections
		sum.bitmapPasses += c.bitmapPasses
		sum.prunedDominated += c.prunedDominated
		sum.groups += c.groups
	}
	n := float64(len(rp.searches))
	ms := func(name string) metric { return metric{median(byName[name]), "ms"} }
	ratio := func(a, b int64) metric {
		if a+b == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(a) / float64(a+b), "ratio"}
	}
	lat := func(res *passResult, role string) float64 { return median(res.latencies(role, -1)) }
	adj := func(res *passResult, role string) float64 { return median(res.adjusted(role)) }
	overhead := (adj(traced, rolePrimary) + adj(traced, roleSide)) / (adj(untraced, rolePrimary) + adj(untraced, roleSide))
	return map[string]metric{
		"dataset.read_csv_ms":             ms("dataset.read_csv"),
		"rank.new_ms":                     ms("rank.new"),
		"count.warm_ms":                   ms("count.warm"),
		"count.index_bytes":               {float64(rp.indexBytes), "bytes"},
		"core.search_ms":                  ms("core.search"),
		"core.nodes_expanded":             {float64(sum.nodes) / n, "count"},
		"core.posting_intersections":      {float64(sum.intersections) / n, "count"},
		"core.bitmap_passes":              {float64(sum.bitmapPasses) / n, "count"},
		"core.pruned_dominated":           {float64(sum.prunedDominated) / n, "count"},
		"core.groups_per_node":            {float64(sum.groups) / math.Max(1, float64(sum.nodes)), "ratio"},
		"rankfair.to_json_ms":             ms("rankfair.to_json"),
		"rankfair.write_json_ms":          ms("rankfair.write_json"),
		"rankfair.report_bytes":           {median(rp.reportBytes), "bytes"},
		"explain.explain_ms":              ms("explain.explain"),
		"stream.parse_ms":                 ms("stream.parse"),
		"dataset.append_rows_ms":          ms("dataset.append_rows"),
		"stream.analyst_append_ms":        ms("stream.analyst_append"),
		"store.put_append_ms":             ms("store.put_append"),
		"store.bytes_per_row":             {float64(rp.stBytes) / math.Max(1, float64(rp.stRows)), "bytes"},
		"http_ms.primary":                 {lat(traced, rolePrimary), "ms"},
		"http_ms.side":                    {lat(traced, roleSide), "ms"},
		"service.self_ms.primary":         {median(self[rolePrimary]), "ms"},
		"service.self_ms.side":            {median(self[roleSide]), "ms"},
		"trace.overhead_ratio":            {overhead, "ratio"},
		"host.ref_ms":                     {median(append(untraced.refs(), traced.refs()...)), "ms"},
		"service.result_cache_hit_ratio":  ratio(untraced.resultHits, untraced.resultMisses),
		"service.analyst_cache_hit_ratio": ratio(untraced.analystHits, untraced.analystMisses),
		"runtime.gc_per_op":               {float64(untraced.gcCount) / float64(len(untraced.samples)), "ratio"},
		"runtime.alloc_mb_per_op":         {float64(untraced.allocBytes) / (1 << 20) / float64(len(untraced.samples)), "MB"},
		"runtime.heap_inuse_mb":           {float64(untraced.peakHeap) / (1 << 20), "MB"},
	}
}
