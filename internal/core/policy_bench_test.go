package core_test

import (
	"context"
	"testing"

	"rankfair/internal/core"
	"rankfair/internal/count"
	"rankfair/internal/synth"
)

// BenchmarkBitmapPolicy runs the snapshot-dominated PROPBOUNDS sweep
// (german, 1000 rows, 8 attributes, τs=10, k∈[10,200]) over a pre-built
// index under each per-node intersection policy: forced galloping slice
// walks, the default cost model, and forced bitmaps. All three return
// identical results (TestQuickBitmapPoliciesAgree), so only wall clock and
// allocations differ; the gap between auto and either forced arm is what
// the cost model buys.
func BenchmarkBitmapPolicy(b *testing.B) {
	in, err := synth.GermanCredit(1000, 3).InputAttrs(8)
	if err != nil {
		b.Fatal(err)
	}
	ix := count.Build(in.Rows, in.Space, in.Ranking)
	wide := core.PropParams{MinSize: 10, KMin: 10, KMax: 200, Alpha: 0.8}
	for _, pol := range []struct {
		name string
		bm   core.BitmapPolicy
	}{
		{"slice-warm", core.BitmapOff},
		{"auto-warm", core.BitmapAuto},
		{"bitmap-warm", core.BitmapForce},
	} {
		pin := core.WithBitmapPolicy(in, pol.bm, ix)
		b.Run("prop-wide/"+pol.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.PropBoundsCtx(context.Background(), pin, wide, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
