package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// smallest sample at or above which a share p of the samples lie. It
// sorts a copy; an empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of quantile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie strictly past the nearest-rank
// p-quantile: the number of samples that decide a tail percentile. A
// tail is reported as trustworthy only when this is at least minTail.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// minTail is the fewest samples a reported tail percentile must have
// beyond it.
const minTail = 10

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tail describes one latency series for the report: its size, the
// percentile, and whether enough samples lie beyond it.
type tail struct {
	N      int
	P      float64
	Value  float64
	Beyond int
}

func tailOf(xs []float64, p float64) tail {
	return tail{N: len(xs), P: p, Value: percentile(xs, p), Beyond: beyond(len(xs), p)}
}

// ok reports whether the tail has at least minTail samples beyond it.
func (t tail) ok() bool { return t.Beyond >= minTail }
