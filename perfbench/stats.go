package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1000 samples, a p90 at least 100. Fewer and the percentile
// is set by a handful of outliers, so it is refused rather than reported.
const minTail = 10

// samplesFor returns the smallest sample count that supports percentile p
// (0 < p < 100) under the minTail rule.
func samplesFor(p float64) int {
	return int(math.Ceil(minTail/(1-p/100) - 1e-6))
}

// percentile returns the nearest-rank p-th percentile of xs, or an error when
// xs holds too few samples to leave minTail of them beyond it. xs is not
// modified. The median (p = 50) is always allowed once xs is non-empty.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	if p != 50 && len(xs) < samplesFor(p) {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p, samplesFor(p), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
