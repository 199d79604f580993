package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// The host-speed reference. The benchmark runs on a few cores of a shared
// host whose speed drifts with its other tenants' load: for minutes at a
// time the same ops, and the fixed kernel below, take 30-60% longer, then
// recover. Such a drift moves every wall-clock figure of a run together,
// and no run length averages it out. So the benchmark times a fixed
// kernel of its own before and after every block of ops and every set-up,
// and reports each time scaled to the kernel's nominal time:
//
//	adjusted = measured × refNominalMS / kernel time around the measurement
//
// The kernel is benchmark code that calls nothing of rankfair, so a change
// to the program never moves it; only the host does. It mixes the kinds of
// work the daemon's ops are made of: an L2-resident read-modify-write
// loop, string-keyed map inserts and lookups with a sort, and an indented
// encoding/json encode of a fixed table. Its inputs and buffers are built
// once; a call allocates only encoding/json's scratch space, about 1.5 MB,
// far below what starts a collection.
type hostRef struct {
	lcg  []uint64
	keys []string
	m    map[string]int
	src  []uint64
	dst  []uint64
	rows []refRow
	out  bytes.Buffer
	sink uint64
}

// refRow is one row of the kernel's JSON table, shaped like a report
// entry.
type refRow struct {
	Key   string   `json:"key"`
	K     int      `json:"k"`
	Count int      `json:"count"`
	Bias  float64  `json:"bias"`
	Attrs []string `json:"attrs"`
}

// refNominalMS is about the kernel's median time on the 2-core box the
// benchmark was tuned on, in a quiet spell. It only sets the scale of the
// adjusted figures: with it they read as the milliseconds that box takes
// when quiet.
const refNominalMS = 12.5

// newHostRef builds the kernel's inputs from a fixed seed, the same in
// every run.
func newHostRef() *hostRef {
	rng := rand.New(rand.NewSource(1))
	h := &hostRef{lcg: make([]uint64, 1<<16), keys: make([]string, 20000), src: make([]uint64, 50000)}
	for i := range h.keys {
		h.keys[i] = fmt.Sprintf("attr-%d=value-%d", i%97, i)
	}
	h.m = make(map[string]int, 2*len(h.keys))
	for i := range h.src {
		h.src[i] = rng.Uint64()
	}
	h.dst = make([]uint64, len(h.src))
	for i := 0; i < 1500; i++ {
		h.rows = append(h.rows, refRow{Key: h.keys[i], K: i % 200, Count: rng.Intn(1000), Bias: rng.Float64(), Attrs: h.keys[i : i+3]})
	}
	return h
}

// time runs the kernel once and returns its wall time in ms.
func (h *hostRef) time() float64 {
	t0 := time.Now()
	var x uint64 = 1
	for it := 0; it < 20; it++ {
		for range h.lcg {
			x = x*6364136223846793005 + 1442695040888963407
			h.lcg[(x>>20)&(1<<16-1)] += x
		}
	}
	clear(h.m)
	for i, k := range h.keys {
		h.m[k] = i
	}
	for _, k := range h.keys {
		x += uint64(h.m[k])
	}
	copy(h.dst, h.src)
	slices.Sort(h.dst)
	h.out.Reset()
	enc := json.NewEncoder(&h.out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h.rows)
	h.sink += x + h.lcg[7] + h.dst[0] + uint64(h.out.Len())
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
