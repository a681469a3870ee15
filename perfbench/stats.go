package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest percentile on the ladder that a
// sample of n values supports — one with at least 10 samples beyond it —
// or 0 when n supports none.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by nearest
// rank, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(r, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
