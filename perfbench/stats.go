package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two closest ranks, the definition numpy and
// spreadsheet PERCENTILE use. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of xs, which must all be positive; it
// returns NaN for an empty sample or a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio returns num/den, or 0 when den is 0, for per-statement averages of
// counters a workload may not exercise.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
