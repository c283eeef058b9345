package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// bestMean is the mean of the best twentieth of xs (at least one value): the
// highest when higher is better, else the lowest; 0 for an empty slice. On a
// shared host whatever disturbs a run only ever slows it, so the best
// sub-windows are the ones that measured the program and not its neighbours.
func bestMean(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	s = s[:max(1, (len(s)+10)/20)]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// spreadPct is the interquartile range of xs as a share of their median, in
// percent: the run's own noise gauge over its sub-windows.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
