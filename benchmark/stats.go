package main

import (
	"math"
	"slices"
)

// percentile returns the exact p-quantile (0 ≤ p ≤ 1) of the samples by
// the nearest-rank rule on a sorted copy: the smallest sample with at
// least a share p of the samples at or below it. It reads a stored
// sample, never a bucket boundary, so two runs agree only when the
// measured durations do. An empty input gives NaN.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median is the statistical median: the middle sample, or the mean of
// the two middle samples of an even count. It is what every per-round
// value and every median-of-rounds uses.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// relativeRange is (max − min) / median, the rounds' own noise reading.
func relativeRange(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return (slices.Max(samples) - slices.Min(samples)) / median(samples)
}

// relativeIQR is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) — the exclusive method the
// benchmark's acceptance check uses.
func relativeIQR(samples []float64) float64 {
	if len(samples) < 2 {
		return math.NaN()
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(sorted)+1) / 4
		j := min(max(int(pos), 1), len(sorted)-1)
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return (quartile(3) - quartile(1)) / median(sorted)
}

func nanosToMillis(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
