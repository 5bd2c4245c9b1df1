package tpch

import (
	"fmt"
	"testing"

	"vectorh/internal/baseline"
	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/sql"
)

// TestSQLParityAcrossLayouts runs the 22 SQL queries on every node × thread
// layout and partition count below, with the local-join and replicated-build
// rules each on and off, against the tuple-at-a-time baseline engine. The
// rewriter's distribution choices (co-located, replicated or broadcast
// build, repartition) depend on the stream counts of the layout and on the
// rules enabled, so each combination plans a different mix of them; the
// answers must not move.
func TestSQLParityAcrossLayouts(t *testing.T) {
	d := Generate(0.004, 7)
	base := baseline.New(baseline.Hive)
	if err := LoadIntoBaseline(base, d); err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]string, NumQueries)
	for _, layout := range []struct{ nodes, threads int }{{1, 1}, {2, 2}, {3, 2}, {4, 1}} {
		for _, parts := range []int{6, 12} {
			names := make([]string, layout.nodes)
			for i := range names {
				names[i] = fmt.Sprintf("n%d", i+1)
			}
			eng, err := core.New(core.Config{
				Nodes:          names,
				ThreadsPerNode: layout.threads,
				BlockSize:      1 << 18,
				Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
				MsgBytes:       16 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := LoadIntoEngine(eng, d, parts); err != nil {
				t.Fatal(err)
			}
			for q := 1; q <= NumQueries; q++ {
				p, err := sql.Compile(SQLQueries[q], eng)
				if err != nil {
					t.Fatalf("Q%02d compile: %v", q, err)
				}
				if want[q] == nil {
					rows, err := base.Query(p)
					if err != nil {
						t.Fatalf("Q%02d baseline: %v", q, err)
					}
					want[q] = normalize(rows)
				}
				for _, localJoin := range []bool{true, false} {
					for _, replicate := range []bool{true, false} {
						name := fmt.Sprintf("%dx%d/p%d/local=%v/replicate=%v/Q%02d",
							layout.nodes, layout.threads, parts, localJoin, replicate, q)
						res, err := eng.QueryOpts(p, core.QueryOptions{LocalJoin: &localJoin, ReplicateBuild: &replicate})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got := normalize(res.Rows)
						if len(got) != len(want[q]) {
							t.Fatalf("%s: %d rows, baseline %d", name, len(got), len(want[q]))
						}
						for i := range got {
							if got[i] != want[q][i] {
								t.Fatalf("%s: row %d differs:\n engine   %s\n baseline %s", name, i, got[i], want[q][i])
							}
						}
					}
				}
			}
		}
	}
}
