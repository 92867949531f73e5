package main

import (
	"math"
	"math/bits"
)

// lathist is the benchmark's own latency recorder: a log-linear histogram
// with 128 sub-buckets per octave, so a quantile carries under 1% error.
// internal/latency stops at 16 sub-buckets (6%), which is wider than the
// bounds BENCHMARK.json puts on lat_p50_us; it stays the program's recorder
// and is measured here as a layer. One goroutine owns each lathist; merge
// them after the goroutines have ended.
type lathist struct {
	counts [latBuckets]uint32
	n      uint64
}

const (
	latSubBits = 7
	latSub     = 1 << latSubBits
	latBuckets = (64 - latSubBits) * latSub
)

func latIndex(v int64) int {
	if v < latSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	exp := bits.Len64(u) - latSubBits - 1
	return exp*latSub + int(u>>uint(exp))
}

// latBounds returns the half-open nanosecond range [lo, hi) of bucket i.
func latBounds(i int) (lo, hi float64) {
	if i < latSub {
		return float64(i), float64(i + 1)
	}
	exp := uint(i/latSub - 1)
	mant := uint64(i%latSub + latSub)
	return float64(mant << exp), float64((mant + 1) << exp)
}

func (h *lathist) observe(ns int64) {
	h.counts[latIndex(ns)]++
	h.n++
}

func (h *lathist) merge(o *lathist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at q in nanoseconds, interpolated linearly
// inside the bucket that holds the q-th observation; 0 when empty.
func (h *lathist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := math.Floor(q * float64(h.n-1)) // the observation's 0-based rank
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := latBounds(i)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

// beyond returns how many observations lie above quantile q — the sample
// count that says whether that percentile is supported.
func (h *lathist) beyond(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	return h.n - uint64(q*float64(h.n-1)) - 1
}

func mergeHists(hs []*lathist) *lathist {
	out := &lathist{}
	for _, h := range hs {
		out.merge(h)
	}
	return out
}
