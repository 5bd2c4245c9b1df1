package main

import (
	"math"
	"testing"
)

func TestEqualValue(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		a, b any
		want bool
	}{
		{nil, nil, true},
		{nil, int64(0), false},
		{"", nil, false},
		{1.0, 1.0 + 1e-12, true},
		{1e12, 1e12 + 1, true},    // relative: 1e-12 apart
		{1e12, 1e12 + 1e4, false}, // relative: 1e-8 apart
		{1e-12, 2e-12, true},      // absolute below magnitude 1
		{0.5, 0.5 + 2e-9, false},  // absolute below magnitude 1
		{nan, nan, true},
		{nan, 1.0, false},
		{inf, inf, true},
		{inf, math.Inf(-1), false},
		{inf, math.MaxFloat64, false},
		{int64(3), int64(3), true},
		{int64(3), 3.0, false}, // types must match
		{int64(3), int32(3), false},
		{"a", "a", true},
		{"a", "b", false},
	} {
		if got := equalValue(c.a, c.b); got != c.want {
			t.Errorf("equalValue(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualAnswers(t *testing.T) {
	want := [][]any{
		{"b", int64(2), 0.1 + 0.2},
		{"a", nil, 1.5},
		{"a", int64(1), 2.5},
	}
	// Same rows in another order, with float noise far below floatTol.
	got := [][]any{
		{"a", int64(1), 2.5},
		{"b", int64(2), 0.3},
		{"a", nil, 1.5},
	}
	if err := equalAnswers(got, want); err != nil {
		t.Errorf("reordered answer rejected: %v", err)
	}
	for name, bad := range map[string][][]any{
		"missing row":   got[:2],
		"NULL vs value": {{"a", int64(1), 2.5}, {"b", int64(2), 0.3}, {"a", int64(0), 1.5}},
		"wrong float":   {{"a", int64(1), 2.5}, {"b", int64(2), 0.31}, {"a", nil, 1.5}},
		"extra column":  {{"a", int64(1), 2.5, 1}, {"b", int64(2), 0.3}, {"a", nil, 1.5}},
		"duplicate row": {{"a", int64(1), 2.5}, {"a", int64(1), 2.5}, {"a", nil, 1.5}},
	} {
		if err := equalAnswers(bad, want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := equalAnswers(nil, [][]any{}); err != nil {
		t.Errorf("empty answers differ: %v", err)
	}
}
