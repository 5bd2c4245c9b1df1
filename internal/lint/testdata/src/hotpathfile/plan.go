package hotfile

import "fmt"

// planNames is cold set-up code beside the exchange: the same shapes as
// dxchg.go, and no findings, because this file is not hot-path code.
var planNames map[string]int

func describe(rows []int) []string {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("t%d", r))
	}
	return out
}
