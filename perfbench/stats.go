package main

import (
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p90 over fewer than 100 samples rests on too few slow
// cases to mean anything.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-th percentile (0 < p < 100)
// of xs and how many samples lie strictly above it. ok is false when
// fewer than minBeyond samples do, so callers can refuse to report a
// tail that rests on a handful of points.
func tailPercentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	v = s[rank-1]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond, beyond >= minBeyond
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples.
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

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: a letter
// or digit, then at most 63 letters, digits, '_', '.' or '-'.
func validMetricName(name string) bool { return metricName.MatchString(name) }
