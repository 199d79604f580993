package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rankfair/internal/count"
	"rankfair/internal/pattern"
)

// policyInput builds a random dataset + ranking, mirroring the
// equivalence-suite generator but available inside the package so the
// policy tests can reuse the cancellation harness.
func policyInput(rng *rand.Rand) *Input {
	nAttrs := 2 + rng.Intn(4) // 2..5
	cards := make([]int, nAttrs)
	names := make([]string, nAttrs)
	for i := range cards {
		cards[i] = 2 + rng.Intn(3) // 2..4
		names[i] = string(rune('A' + i))
	}
	nRows := 20 + rng.Intn(60)
	rows := make([][]int32, nRows)
	for i := range rows {
		r := make([]int32, nAttrs)
		for j := range r {
			r[j] = int32(rng.Intn(cards[j]))
		}
		rows[i] = r
	}
	return &Input{
		Rows:    rows,
		Space:   &pattern.Space{Names: names, Cards: cards},
		Ranking: rng.Perm(nRows),
	}
}

// policyEntryPoints drives every detection entry point over one input
// with randomized parameters, so intersection policies can be compared
// wholesale.
func policyEntryPoints(in *Input, rng *rand.Rand) map[string]func(ctx context.Context, workers int) (*Result, error) {
	n := len(in.Rows)
	kMin := 1 + rng.Intn(5)
	kMax := kMin + rng.Intn(15)
	if kMax > n {
		kMax = n
	}
	minSize := rng.Intn(5)
	lower := make([]int, kMax-kMin+1)
	l := 1 + rng.Intn(3)
	for i := range lower {
		if rng.Intn(4) == 0 {
			l += rng.Intn(2)
		}
		lower[i] = l
	}
	upper := make([]int, kMax-kMin+1)
	for i := range upper {
		upper[i] = 1 + rng.Intn(4)
	}
	gp := GlobalParams{MinSize: minSize, KMin: kMin, KMax: kMax, Lower: lower}
	pp := PropParams{MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: 0.2 + rng.Float64()}
	ep := ExposureParams{MinSize: minSize, KMin: kMin, KMax: kMax, Alpha: 0.2 + rng.Float64()}
	gup := GlobalUpperParams{MinSize: minSize, KMin: kMin, KMax: kMax, Upper: upper}
	pup := PropUpperParams{MinSize: minSize, KMin: kMin, KMax: kMax, Beta: 1.0 + rng.Float64()}
	return map[string]func(ctx context.Context, workers int) (*Result, error){
		"GlobalBounds": func(ctx context.Context, w int) (*Result, error) { return GlobalBoundsCtx(ctx, in, gp, w) },
		"IterTDGlobal": func(ctx context.Context, w int) (*Result, error) { return IterTDGlobalCtx(ctx, in, gp, w) },
		"PropBounds":   func(ctx context.Context, w int) (*Result, error) { return PropBoundsCtx(ctx, in, pp, w) },
		"IterTDProp":   func(ctx context.Context, w int) (*Result, error) { return IterTDPropCtx(ctx, in, pp, w) },
		"ExposureBounds": func(ctx context.Context, w int) (*Result, error) {
			return ExposureBoundsCtx(ctx, in, ep, w)
		},
		"IterTDExposure": func(ctx context.Context, w int) (*Result, error) {
			return IterTDExposureCtx(ctx, in, ep, w)
		},
		"GlobalUpperBounds": func(ctx context.Context, w int) (*Result, error) {
			return GlobalUpperBoundsCtx(ctx, in, gup, w)
		},
		"IterTDGlobalUpper": func(ctx context.Context, w int) (*Result, error) {
			return IterTDGlobalUpperCtx(ctx, in, gup, w)
		},
		"IterTDPropUpper": func(ctx context.Context, w int) (*Result, error) {
			return IterTDPropUpperCtx(ctx, in, pup, w)
		},
		"IterTDGlobalUpperMostGeneral": func(ctx context.Context, w int) (*Result, error) {
			return IterTDGlobalUpperMostGeneralCtx(ctx, in, gup, w)
		},
		"IterTDGlobalLowerMostSpecific": func(ctx context.Context, w int) (*Result, error) {
			return IterTDGlobalLowerMostSpecificCtx(ctx, in, gp, w)
		},
	}
}

// TestQuickBitmapPoliciesAgree is the engine differential: for every
// entry point, forced slice walks, forced bitmaps and the default per-node
// cost model — each over a cold (search-built) and a warm (pre-built)
// index, serial and fanned out — return identical Groups and Stats. These
// inputs stay below the cost model's bitmap cut, so the default policy
// walks slices here; TestQuickBitmapArmMatchesOracle covers its bitmap arm.
func TestQuickBitmapPoliciesAgree(t *testing.T) {
	ctx := context.Background()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := policyInput(rng)
		prebuilt := count.Build(base.Rows, base.Space, base.Ranking)
		variants := []struct {
			name string
			in   *Input
		}{
			{"slice-cold", WithBitmapPolicy(base, BitmapOff, nil)},
			{"slice-warm", WithBitmapPolicy(base, BitmapOff, prebuilt)},
			{"auto-cold", WithBitmapPolicy(base, BitmapAuto, nil)},
			{"auto-warm", WithBitmapPolicy(base, BitmapAuto, prebuilt)},
			{"bitmap-cold", WithBitmapPolicy(base, BitmapForce, nil)},
			{"bitmap-warm", WithBitmapPolicy(base, BitmapForce, prebuilt)},
		}
		// One parameter draw shared by the reference run and every variant.
		wants := map[string]*Result{}
		for name, run := range policyEntryPoints(variants[0].in, rand.New(rand.NewSource(seed+1))) {
			want, err := run(ctx, 1)
			if err != nil {
				t.Logf("seed %d %s slice-cold: %v", seed, name, err)
				return false
			}
			wants[name] = want
		}
		for _, vr := range variants {
			runs := policyEntryPoints(vr.in, rand.New(rand.NewSource(seed+1)))
			for name, run := range runs {
				want := wants[name]
				for _, workers := range []int{1, 3} {
					got, err := run(ctx, workers)
					if err != nil {
						t.Logf("seed %d %s %s workers=%d: %v", seed, name, vr.name, workers, err)
						return false
					}
					if !reflect.DeepEqual(want.Groups, got.Groups) {
						t.Logf("seed %d %s %s workers=%d: groups diverge from slice-cold", seed, name, vr.name, workers)
						return false
					}
					if want.Stats != got.Stats {
						t.Logf("seed %d %s %s workers=%d: stats diverge: slice-cold %+v, got %+v",
							seed, name, vr.name, workers, want.Stats, got.Stats)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyCanceledRunsAgree drives every intersection policy into the
// same deterministic cancellation (a poll-budget context, serial workers)
// and asserts they abandon the search at the same point: each reports a
// CanceledError carrying the same partial-work count.
func TestStrategyCanceledRunsAgree(t *testing.T) {
	base := denseCancelInput(12, 1500)
	policies := []struct {
		name string
		bm   BitmapPolicy
	}{{"slice", BitmapOff}, {"auto", BitmapAuto}, {"bitmap", BitmapForce}}
	runs := make([]map[string]func(ctx context.Context, workers int) (*Result, error), len(policies))
	for i, pol := range policies {
		runs[i] = policyEntryPoints(WithBitmapPolicy(base, pol.bm, nil), rand.New(rand.NewSource(31)))
	}
	for name := range runs[0] {
		for _, budget := range []int64{1, 5} {
			var examined []int64
			for i, pol := range policies {
				res, err := runs[i][name](newBudgetCtx(budget), 1)
				var ce *CanceledError
				if res != nil || !errors.As(err, &ce) {
					t.Errorf("%s budget=%d %s: want a CanceledError and no result, got result=%v err=%v",
						name, budget, pol.name, res != nil, err)
					examined = nil
					break
				}
				examined = append(examined, ce.NodesExamined)
			}
			for i := 1; i < len(examined); i++ {
				if examined[i] != examined[0] {
					t.Errorf("%s budget=%d: partial work diverges: %s examined %d nodes, %s %d",
						name, budget, policies[0].name, examined[0], policies[i].name, examined[i])
				}
			}
		}
	}
}

// TestValidateRejectsMismatchedIndex guards the one consistency check the
// input performs on an attached index.
func TestValidateRejectsMismatchedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := policyInput(rng)
	other := policyInput(rng)
	if len(other.Rows) == len(in.Rows) {
		other.Rows = other.Rows[:len(other.Rows)-1]
		other.Ranking = nil // irrelevant: row-count check fires first
	}
	bad := count.Build(other.Rows, other.Space, make([]int, len(other.Rows)))
	in.Index = bad
	if err := in.Validate(); err == nil {
		t.Error("Validate accepted an index over a different row count")
	}
	// The check must also fire on an already-validated input: attaching a
	// mismatched index later cannot hide behind the validation memo.
	in.Index = nil
	if err := in.Validate(); err != nil {
		t.Fatalf("clean input rejected: %v", err)
	}
	in.Index = bad
	if err := in.Validate(); err == nil {
		t.Error("memoized Validate accepted a mismatched index attached after validation")
	}
}
