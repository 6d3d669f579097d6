package main

import (
	"math"
	"sort"
	"time"
)

// hist is an exact histogram of non-negative cycle counts.
type hist struct {
	counts []int64
	n      int64
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	for int64(len(h.counts)) <= v {
		h.counts = append(h.counts, make([]int64, len(h.counts)+64)...)
	}
	h.counts[v]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for v, c := range o.counts {
		if c == 0 {
			continue
		}
		for len(h.counts) <= v {
			h.counts = append(h.counts, make([]int64, len(h.counts)+64)...)
		}
		h.counts[v] += c
	}
	h.n += o.n
}

// quantile returns the smallest value v with at least q of the samples at
// or below v (0 for an empty histogram).
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	need := max(int64(math.Ceil(q*float64(h.n))), 1)
	var seen int64
	for v, c := range h.counts {
		seen += c
		if seen >= need {
			return int64(v)
		}
	}
	return int64(len(h.counts) - 1)
}

func (h *hist) equal(o *hist) bool {
	if h.n != o.n {
		return false
	}
	short, long := h.counts, o.counts
	if len(short) > len(long) {
		short, long = long, short
	}
	for v := range long {
		var a int64
		if v < len(short) {
			a = short[v]
		}
		if a != long[v] {
			return false
		}
	}
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

func medianDur(ds []time.Duration) float64 { return median(seconds(ds)) }

// ratio is a/b, or 0 when the base b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
