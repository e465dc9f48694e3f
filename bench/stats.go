package main

import (
	"fmt"
	"math"
	"sort"
)

// minPercentileSamples is the fewest latencies a window may hold for its
// median to be reported. A window with fewer fails the run instead of
// printing a number a handful of requests decide. The slowest workloads
// (the disk-backed closed loops) complete about 110 batches in a 4 s window
// on the reference box, so the rule leaves a box half as fast room to
// finish.
const minPercentileSamples = 60

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals, or an error when vals holds fewer than min samples. vals is not
// modified.
func percentile(vals []float64, p float64, min int) (float64, error) {
	if len(vals) < min || len(vals) == 0 {
		return 0, fmt.Errorf("percentile p%g needs %d samples, have %d", p, min, len(vals))
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	// The epsilon keeps p*n/100 landing a hair above a whole number
	// (95*20/100 = 19.000000000000004) from rounding up a rank.
	rank := int(math.Ceil(p*float64(len(s))/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], nil
}

// median returns the middle value of vals (mean of the middle two when
// even), 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianOverWindows applies f to every window and returns the median of
// the per-window values: one disturbed window (a neighbour's burst, a GC
// cycle landing badly) moves the reported number by at most one rank.
func medianOverWindows[W any](windows []W, f func(W) (float64, error)) (float64, error) {
	vals := make([]float64, 0, len(windows))
	for i, w := range windows {
		v, err := f(w)
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", i, err)
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}
