package rankfair_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rankfair"
	"rankfair/internal/synth"
)

// statsAnalyst builds a facade analyst over the bundle's first attrs
// attributes (full-width lattices are benchmark territory) with its own
// input, so stats toggles never leak across the instrumented/disabled
// pair.
func statsAnalyst(t *testing.T, b *synth.Bundle, attrs int) *rankfair.Analyst {
	t.Helper()
	in, err := b.InputAttrs(attrs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rankfair.NewFromInput(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// statsCases is one audit per measure over a shared k range.
func statsCases(kMin, kMax int) []rankfair.AuditParams {
	span := kMax - kMin + 1
	lower := make([]int, span)
	upper := make([]int, span)
	for i := range lower {
		lower[i] = 2
		upper[i] = 3
	}
	return []rankfair.AuditParams{
		{Measure: rankfair.MeasureGlobal, MinSize: 8, KMin: kMin, KMax: kMax, Lower: lower},
		{Measure: rankfair.MeasureProp, MinSize: 8, KMin: kMin, KMax: kMax, Alpha: 0.8},
		{Measure: rankfair.MeasureGlobalUpper, MinSize: 8, KMin: kMin, KMax: kMax, Upper: upper},
		{Measure: rankfair.MeasurePropUpper, MinSize: 8, KMin: kMin, KMax: kMax, Beta: 1.25},
		{Measure: rankfair.MeasureExposure, MinSize: 8, KMin: kMin, KMax: kMax, Alpha: 0.8},
	}
}

// statsArm is one input of the stats tests together with its audits.
type statsArm struct {
	name    string
	bundle  *synth.Bundle
	attrs   int
	params  []rankfair.AuditParams
	bitmaps bool // the incremental searches take bitmap passes
}

// statsArms drives the engine through each intersection arm of its
// per-node cost model: every student posting list sits below the bitmap
// cut, so all intersections are galloping walks over the index's posting
// lists ("index"); the german input is large and coarse enough that the
// incremental searches also take bitmap passes ("bitmap").
func statsArms() []statsArm {
	return []statsArm{
		{"index", synth.Students(260, 7), 8, statsCases(5, 15), false},
		{"bitmap", synth.GermanCredit(4096, 5), 4, statsCases(10, 200), true},
	}
}

// TestStatsInvariance is the observability layer's no-interference
// contract: collecting search statistics must not change what an audit
// reports. For every measure, both intersection arms, and serial vs
// parallel fan-out, the audit JSON of an instrumented run minus its
// "stats" key is byte-identical to a run with stats disabled.
func TestStatsInvariance(t *testing.T) {
	for _, arm := range statsArms() {
		for _, workers := range []int{1, 4} {
			for _, params := range arm.params {
				params.Workers = workers
				t.Run(fmt.Sprintf("%s/%s/w%d", params.Measure, arm.name, workers), func(t *testing.T) {
					on := statsAnalyst(t, arm.bundle, arm.attrs)
					off := statsAnalyst(t, arm.bundle, arm.attrs)
					off.SetSearchStats(false)

					repOn, err := on.Detect(params)
					if err != nil {
						t.Fatal(err)
					}
					repOff, err := off.Detect(params)
					if err != nil {
						t.Fatal(err)
					}
					if repOn.Search == nil {
						t.Fatal("instrumented run carries no SearchStats")
					}
					if repOn.Search.Strategy != "index" {
						t.Errorf("stats strategy = %q, want %q", repOn.Search.Strategy, "index")
					}
					// The per-k baselines (upper measures) never intersect;
					// the incremental searches must take the arm's passes.
					incremental := params.Measure != rankfair.MeasureGlobalUpper && params.Measure != rankfair.MeasurePropUpper
					if arm.bitmaps && incremental && repOn.Search.BitmapPasses == 0 {
						t.Error("bitmap arm took no bitmap pass")
					}
					if !arm.bitmaps && repOn.Search.BitmapPasses != 0 {
						t.Errorf("index arm took %d bitmap passes", repOn.Search.BitmapPasses)
					}
					if repOn.Search.Workers != workers {
						t.Errorf("stats workers = %d, want %d", repOn.Search.Workers, workers)
					}
					if repOff.Search != nil {
						t.Fatal("disabled run still carries SearchStats")
					}

					jOn := repOn.ToJSON()
					if jOn.Stats == nil {
						t.Fatal("instrumented audit JSON has no stats key")
					}
					jOff := repOff.ToJSON()
					if jOff.Stats != nil {
						t.Fatal("disabled audit JSON still has a stats key")
					}
					jOn.Stats = nil
					rawOn, err := json.MarshalIndent(jOn, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					rawOff, err := json.MarshalIndent(jOff, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(rawOn, rawOff) {
						t.Errorf("audit JSON differs beyond the stats key:\n--- instrumented ---\n%s\n--- disabled ---\n%s", rawOn, rawOff)
					}

					// The pooled encoder agrees on the disabled shape too.
					var buf bytes.Buffer
					if err := repOff.WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					if want := append(rawOff, '\n'); !bytes.Equal(buf.Bytes(), want) {
						t.Error("WriteJSON of the disabled run diverges from encoding/json")
					}
				})
			}
		}
	}
}

// BenchmarkObsOverhead measures the cost of the always-on search
// instrumentation: the same warm audit with stats collected vs disabled.
// The two timings are the PR's acceptance gate (<= 2% apart, recorded in
// BENCH_PR6.json).
func BenchmarkObsOverhead(b *testing.B) {
	bundle := synth.Students(395, 2)
	for _, mode := range []struct {
		name    string
		enabled bool
	}{
		{"stats-on", true},
		{"stats-off", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			in, err := bundle.InputAttrs(8)
			if err != nil {
				b.Fatal(err)
			}
			a, err := rankfair.NewFromInput(in, nil)
			if err != nil {
				b.Fatal(err)
			}
			a.SetSearchStats(mode.enabled)
			a.Warm()
			params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 10, KMin: 10, KMax: 49, Alpha: 0.8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Detect(params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStatsWorkerIndependence: the serialized stats block is fan-out
// independent (audits differing only in worker count share one cache
// entry in the daemon), while the in-process Report.Search still reports
// the width that ran.
func TestStatsWorkerIndependence(t *testing.T) {
	b := synth.Students(260, 7)
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		a := statsAnalyst(t, b, 8)
		rep, err := a.Detect(rankfair.AuditParams{
			Measure: rankfair.MeasureProp, MinSize: 8, KMin: 5, KMax: 15, Alpha: 0.8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Search.Workers != workers {
			t.Errorf("Report.Search.Workers = %d, want %d", rep.Search.Workers, workers)
		}
		raw, err := json.Marshal(rep.ToJSON().Stats)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			t.Errorf("workers=%d serialized stats diverge:\n%s\nvs\n%s", workers, raw, first)
		}
	}
}
