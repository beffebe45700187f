package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the median of xs (0 for an empty slice) without reordering
// the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method) — the driver computes spread with that
// function, so -calibrate must agree with it to the digit.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// hist is a fixed-size log-linear latency histogram (nanoseconds): exact
// below 256 ns, then 128 sub-buckets per power of two (< 0.8 % wide). It
// replaces a per-sample reservoir so the generator's memory does not grow
// with throughput and peak_rss_mb measures the program. Quantiles
// interpolate inside the bucket, so two runs practically never print the
// same value.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

const (
	histSub     = 128
	histBuckets = 2*histSub + 33*histSub
)

func histIndex(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 8 // v>>exp in [128, 256)
	i := 2*histSub + (exp-1)*histSub + int(v>>uint(exp)) - histSub
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histBounds returns the value range [lo, hi) bucket i covers.
func histBounds(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	exp := (i-2*histSub)/histSub + 1
	m := (i-2*histSub)%histSub + histSub
	return math.Ldexp(float64(m), exp), math.Ldexp(float64(m+1), exp)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q < 1) in nanoseconds.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}
