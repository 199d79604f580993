package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"rankfair"
)

// digest hashes everything a plan sends.
func digest(t *testing.T, p *Plan) [32]byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

func plan(t *testing.T, w string, seed int64) *Plan {
	t.Helper()
	p, err := NewPlan(w, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := plan(t, w, 7), plan(t, w, 7), plan(t, w, 8)
		if digest(t, a) != digest(t, b) {
			t.Errorf("%s: seed 7 gave two different plans", w)
		}
		if bytes.Equal(a.Tables[0], c.Tables[0]) {
			t.Errorf("%s: seeds 7 and 8 uploaded the same table bytes", w)
		}
		if sameOrder(a, c) {
			t.Errorf("%s: seeds 7 and 8 sent the same op sequence", w)
		}
	}
}

// sameOrder reports whether two plans send their ops in the same order.
func sameOrder(a, b *Plan) bool {
	enc := func(p *Plan) []byte {
		var ops []Op
		for _, ph := range p.Phases {
			ops = append(ops, ph.Ops...)
		}
		out, _ := json.Marshal(ops)
		return out
	}
	return bytes.Equal(enc(a), enc(b))
}

// TestAuditParamsMissTheResultCache holds every measured cache-missing
// audit of a workload, and its warm-ups, to a cache key of its own.
func TestAuditParamsMissTheResultCache(t *testing.T) {
	for _, w := range []string{wAuditMiss} {
		p := plan(t, w, 1)
		seen := map[string]bool{}
		add := func(params rankfair.AuditParams) {
			k := params.CacheKey()
			if seen[k] {
				t.Errorf("%s: cache key %q repeats", w, k)
			}
			seen[k] = true
		}
		for _, wu := range p.Warmups {
			add(wu.Params)
		}
		for _, ph := range p.Phases {
			for _, op := range ph.Ops {
				if err := op.Params.Validate(); err != nil {
					t.Fatalf("%s: %v", w, err)
				}
				add(op.Params)
			}
		}
	}
}

// TestParamVariantsDoTheSameWork checks the premise that lets one phase's
// audits miss the cache without varying in cost: two parameter sets of a
// measure find the same groups with the same search counters. Only the
// bound each group is reported against, and so its bias, may differ.
func TestParamVariantsDoTheSameWork(t *testing.T) {
	cases := []struct {
		attrs  int
		params func(int) rankfair.AuditParams
	}{
		{searchAttrs, propParams},
		{narrowAttrs, globalUpperParams},
	}
	for _, c := range cases {
		lines, err := germanLines(germanRows, c.attrs)
		if err != nil {
			t.Fatal(err)
		}
		table, err := rankfair.ReadCSV(bytes.NewReader(bytes.Join(lines, nil)), rankfair.CSVOptions{AllCategorical: true, NumericColumns: []string{"credit_score"}})
		if err != nil {
			t.Fatal(err)
		}
		ranker, err := rankerSpec.Build()
		if err != nil {
			t.Fatal(err)
		}
		a, err := rankfair.New(table, ranker)
		if err != nil {
			t.Fatal(err)
		}
		var reports [][]byte
		for _, i := range []int{1, 137} {
			rep, err := a.DetectCtx(context.Background(), c.params(i))
			if err != nil {
				t.Fatal(err)
			}
			rj := rep.ToJSON()
			for _, kg := range rj.Results {
				for i := range kg.Groups {
					kg.Groups[i].Required, kg.Groups[i].Bias = 0, 0
				}
			}
			b, err := json.Marshal(rj)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, b)
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Errorf("%s: parameter sets 1 and 137 gave different reports", c.params(1).Measure)
		}
	}
}
