package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail percentile resting on fewer is one or two
// unlucky samples, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles tailPercentile falls back through, from
// the highest down.
var tailLadder = []float64{99.9, 99, 98, 97.5, 95, 90, 75, 50}

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples: ceil(p/100 · n), clamped to [1, n].
func rankOf(p float64, n int) int {
	// The small slack keeps float error in p (99.9 is not exact) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supportedPercentile returns the highest percentile on tailLadder that is
// at most want and has at least minBeyond of n samples above its rank. ok
// is false when not even the median has that support.
func supportedPercentile(want float64, n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// tailPercentile reports the percentile of xs closest to want from below
// that the sample supports (see supportedPercentile), with the percentile
// it used. With too few samples for any percentile it falls back to the
// median of what there is and reports p = 50, ok = false.
func tailPercentile(xs []float64, want float64) (v, p float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	p, ok = supportedPercentile(want, len(s))
	if !ok {
		p = 50
	}
	return s[rankOf(p, len(s))-1], p, ok
}

// median is the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankOf(50, len(s))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
