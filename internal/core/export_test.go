package core

import "rankfair/internal/count"

// BitmapPolicy exposes the per-node intersection policy to tests, so the
// slice and bitmap arms of the cost model keep a differential reference.
type BitmapPolicy = bitmapMode

const (
	BitmapAuto  = bmAuto  // the cost model every search runs
	BitmapOff   = bmOff   // galloping slice walks only
	BitmapForce = bmForce // bitmaps whenever every bound value has one
)

// WithBitmapPolicy returns a shallow copy of in whose searches run under
// policy bm over ix; a nil ix makes every search build its own index.
func WithBitmapPolicy(in *Input, bm BitmapPolicy, ix *count.Index) *Input {
	cp := *in
	cp.bitmaps = bm
	cp.Index = ix
	return &cp
}
