package sql

import (
	"testing"

	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// statsCat is a catalog with row counts and MinMax ranges: table t holds
// 60000 rows, d is a date column spanning 2526 days and k an int column over
// [1, 1000].
type statsCat struct{}

func (statsCat) TableSchema(name string) (vector.Schema, error) {
	return vector.Schema{
		{Name: "d", Type: vector.TDate},
		{Name: "k", Type: vector.TInt64},
		{Name: "s", Type: vector.TString},
	}, nil
}

func (statsCat) TableRows(string) (int64, error) { return 60000, nil }

func (statsCat) ColumnRange(_, col string) (lo, hi int64, ok bool) {
	switch col {
	case "d":
		lo = int64(vector.MustDate("1992-01-01"))
		return lo, lo + 2525, true
	case "k":
		return 1, 1000, true
	}
	return 0, 0, false
}

// filterEst returns the planner estimate carried by the first filter of a
// lowered plan.
func filterEst(t *testing.T, n plan.Node) int64 {
	t.Helper()
	for {
		switch x := n.(type) {
		case *plan.FilterNode:
			return x.Est
		case *plan.AggregateNode:
			n = x.Child
		case *plan.ProjectNode:
			n = x.Child
		default:
			t.Fatalf("no filter in plan (reached %T)", n)
		}
	}
}

// TestEstimateIntersectsRangesPerColumn: the literal bounds on one column
// form a single interval, charged its MinMax overlap once. A one-month
// window (TPC-H Q14's shape) is 30 of 2526 days, not the product of two
// half-ranges.
func TestEstimateIntersectsRangesPerColumn(t *testing.T) {
	for _, tc := range []struct {
		where string
		want  int64
	}{
		// 60000 × 30/2526 = 712.6
		{"d >= date '1995-09-01' and d < date '1995-10-01'", 713},
		// [150, 199] ∩ [150, ∞): 60000 × 50/1000
		{"k between 100 and 199 and k >= 150", 3000},
		// Literal on the left flips the comparison: [1, 9].
		{"10 > k", 540},
		// Disjoint bounds admit nothing; estimates floor at one row.
		{"k = 5 and k > 10", 1},
		// Other conjuncts keep their own selectivity: IN is 3/1000 of k's
		// range, a string equality the 1/3 default.
		{"k in (1, 2, 3) and s = 'x'", 60},
		// A column without a MinMax range keeps the default per conjunct.
		{"s >= 'a' and s < 'b'", 6667},
	} {
		n, err := Compile("select count(*) as n from t where "+tc.where, statsCat{})
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		if got := filterEst(t, n); got != tc.want {
			t.Errorf("%s: estimate %d, want %d", tc.where, got, tc.want)
		}
	}
}
