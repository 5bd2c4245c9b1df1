package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
)

// floatTol is the one tolerance of the answer check: two float64 values
// match when they differ by at most floatTol relative to the larger
// magnitude (or absolutely, below magnitude 1). The engine and the baseline
// sum the same decimals in different orders; over TPC-H sizes that moves
// the last few of float64's ~16 significant digits, far below this bound,
// while any real arithmetic or row-set error lands far above it.
const floatTol = 1e-9

// equalAnswers reports whether got and want hold the same rows, ignoring
// row order (ties under ORDER BY may be broken differently by the two
// engines). Values must have identical Go types, NULL (nil) matches only
// NULL, and float64 values match within floatTol.
func equalAnswers(got, want [][]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if err := equalRow(g[i], w[i]); err != nil {
			return fmt.Errorf("row %d (sorted) %s: got %s want %s", i, err, fmtRow(g[i]), fmtRow(w[i]))
		}
	}
	return nil
}

func equalRow(got, want []any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d columns, want %d", len(got), len(want))
	}
	for c := range got {
		if !equalValue(got[c], want[c]) {
			return fmt.Errorf("column %d differs", c)
		}
	}
	return nil
}

func equalValue(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok {
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		if math.IsInf(fa, 0) || math.IsInf(fb, 0) {
			return fa == fb
		}
		scale := math.Max(1, math.Max(math.Abs(fa), math.Abs(fb)))
		return math.Abs(fa-fb) <= floatTol*scale
	}
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	return a == b
}

// sortedRows returns a copy of rows in a total order: column by column,
// NULL first, then by type name, then by value. Floats order exactly, so
// two answers whose floats differ only within floatTol sort alike unless
// they tie on every other column too.
func sortedRows(rows [][]any) [][]any {
	s := append([][]any(nil), rows...)
	sort.SliceStable(s, func(i, j int) bool { return compareRows(s[i], s[j]) < 0 })
	return s
}

func compareRows(a, b []any) int {
	for c := 0; c < len(a) && c < len(b); c++ {
		if r := compareValues(a[c], b[c]); r != 0 {
			return r
		}
	}
	return len(a) - len(b)
}

func compareValues(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	ta, tb := reflect.TypeOf(a).String(), reflect.TypeOf(b).String()
	if ta != tb {
		return strings.Compare(ta, tb)
	}
	switch x := a.(type) {
	case float64:
		return cmpOrdered(x, b.(float64))
	case int64:
		return cmpOrdered(x, b.(int64))
	case int32:
		return cmpOrdered(x, b.(int32))
	case string:
		return strings.Compare(x, b.(string))
	case bool:
		return cmpOrdered(boolInt(x), boolInt(b.(bool)))
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}

func cmpOrdered[T int32 | int64 | float64 | int](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fmtRow(row []any) string { return fmt.Sprintf("%v", row) }
