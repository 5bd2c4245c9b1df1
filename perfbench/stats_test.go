package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {40, 29}, {50, 35}, {95, 48}, {100, 50},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample p95 = %v, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of empty sample is not NaN")
	}
	unsorted := []float64{3, 1, 2}
	percentile(unsorted, 50)
	if unsorted[0] != 3 {
		t.Error("percentile reordered its input")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1,10,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}} {
		if got := geomean(xs); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", xs, got)
		}
	}
}

func TestRatio(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
}
