// Command perfbench is rankfair's end-to-end benchmark. It boots the
// rankfaird daemon in-process on a loopback listener, drives it with one
// closed-loop client over one keep-alive connection through a fixed,
// seeded sequence of operations, checks every output, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	perfbench --workload audit-miss --seed 1 --seconds 25 --trace 0
//
// Run it from the repository root through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloads))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", refSeconds, "run length the op counts are scaled to")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed int64, seconds int, traced bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	p, err := NewPlan(workload, seed, seconds)
	if err != nil {
		return err
	}
	var out result
	var passes []*passResult
	host := newHostRef()
	if !traced {
		res, err := runPass(p, p.Sessions, host, nil)
		if err != nil {
			return err
		}
		passes = []*passResult{res}
		out.Metrics = endToEnd(res)
	} else {
		// The untraced pass is the reference the tracing overhead is
		// measured against; the traced pass starts from a fresh set-up so
		// its audits miss the result cache again. Each runs the first
		// session only.
		untraced, err := runPass(p, 1, host, nil)
		if err != nil {
			return err
		}
		tracedRes, err := runPass(p, 1, host, newTracer())
		if err != nil {
			return err
		}
		passes = []*passResult{untraced, tracedRes}
		out.Metrics = perLayer(untraced, tracedRes)
		if err := writeTrace(workload, seed, tracedRes.trace); err != nil {
			return err
		}
	}
	for _, res := range passes {
		out.Attempted += len(res.samples) + res.checks
		out.Failed += len(res.problems)
		printPass(p, res)
	}
	out.Correct = out.Failed == 0
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	if err := printJSON(map[string]any{"env": environment(workload, passes[0])}); err != nil {
		return err
	}
	return printJSON(out)
}

// printPass reports each op class with its sample count, then the checks.
func printPass(p *Plan, res *passResult) {
	mode := "untraced"
	if res.trace != nil {
		mode = "traced"
	}
	fmt.Printf("%s %s: %d sessions, set-up median %.4fs measured, %.4fs adjusted; reference kernel median %.3fms (nominal %.1fms)\n",
		p.Workload, mode, len(res.setupS), median(res.setupS), median(res.adjustedSetups()), median(res.refs()), refNominalMS)
	for _, role := range []string{rolePrimary, roleSide} {
		xs, adj := res.latencies(role, -1), res.adjusted(role)
		fmt.Printf("  %-7s n=%-5d measured p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms; adjusted p50=%.3fms p90=%.3fms\n", role, len(xs),
			quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 1), quantile(adj, 0.5), quantile(adj, 0.9))
		fmt.Printf("   ")
		for r := 0; r < p.Rounds; r++ {
			if xs := res.latencies(role, r); len(xs) > 0 {
				fmt.Printf(" %.2f", median(xs))
			}
		}
		fmt.Println(" (per-round p50, ms)")
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, pr := range res.problems {
		fmt.Println("  failed: " + pr)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// writeTrace writes the traced pass's spans under the work directory.
func writeTrace(workload string, seed int64, tr *tracer) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}

// environment records what an unsteady run can be traced back to.
func environment(workload string, res *passResult) map[string]any {
	return map[string]any{
		"workload":      workload,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        commit(),
		"work_dir_fs":   fsType(workDir),
		"gc_count":      res.gcCount,
		"alloc_mb":      float64(res.allocBytes) / (1 << 20),
		"peak_heap_mb":  float64(res.peakHeap) / (1 << 20),
		"sessions":      len(res.setupS),
		"ref_kernel_ms": median(res.refs()),
	}
}
