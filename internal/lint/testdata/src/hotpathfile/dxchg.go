// Package hotfile exercises the file scope of the hotpathalloc analyzer.
// Checked under the internal/mpp import path, only this file — named like
// the DXchg senders — is hot-path code.
package hotfile

import "fmt"

// routes keys destinations by a per-row string.
var routes map[string]int // want "map[string] in hot-path code"

// tagRows formats a per-row tag.
func tagRows(rows []int) []string {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("t%d", r)) // want "fmt.Sprintf in a hot-path loop"
	}
	return out
}
