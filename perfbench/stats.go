package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a timing may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest of tailPercentiles that has at least
// ten of n samples beyond it, or 0 when even the median has not. A
// percentile with fewer samples beyond it reads one or two outliers and
// does not repeat from run to run.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps float error in p*n from pushing an exact rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unmodified. It returns NaN for no
// samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
