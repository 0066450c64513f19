package main

import (
	"math"
	"sort"
)

var inf = math.Inf(1)

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// method; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

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

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// compare mode reads spreads exactly as the acceptance check does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4 in 1-based order statistics.
		m := n + 1
		k := j * m / 4
		frac := float64(j*m%4) / 4
		lo := k - 1
		if lo < 0 {
			return s[0]
		}
		if k >= n {
			return s[n-1]
		}
		return s[lo] + (s[k]-s[lo])*frac
	}
	return at(1), at(2), at(3)
}
