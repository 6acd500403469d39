package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 128 linear
// sub-buckets per power of two, so a reported quantile is within 0.8% of
// the true sample. server.Histogram's power-of-two buckets cannot
// resolve the 5-10% changes this benchmark gates on, which is why the
// benchmark carries its own. Not safe for concurrent use: each driver
// goroutine owns one and they are merged after the goroutines exit.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^40 ns (18 minutes) resolve; larger ones clamp to the
	// last bucket.
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // position of the top bit, >= histSubBits
	b := (e-histSubBits+1)<<histSubBits + int(uint64(ns)>>(e-histSubBits))&(histSub-1)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histBounds returns bucket b's lower edge and width in nanoseconds.
func histBounds(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	e := b>>histSubBits + histSubBits - 1
	return float64(uint64(1)<<e + uint64(b&(histSub-1))<<(e-histSubBits)), float64(uint64(1) << (e - histSubBits))
}

func (h *hist) add(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-th quantile in nanoseconds, 0 when empty. Within
// the winning bucket it interpolates by rank, so the result moves
// continuously with the sample instead of in bucket-width steps.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); rank < next || b == histBuckets-1 {
			lo, width := histBounds(b)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }

// quantileOf returns the q-th quantile of a small sample (recovery
// cycles, campaign cells, per-second windows), by linear interpolation
// between order statistics. It sorts vs in place.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	i := int(pos)
	if i >= len(vs)-1 {
		return vs[len(vs)-1]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}
