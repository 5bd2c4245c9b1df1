package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric tables of this program and
// the benchmark definition at the repository root in step: same names, same
// order, same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}

func TestOpKind(t *testing.T) {
	for label, want := range map[string]string{
		"MScan[lineitem] (partitioned) pred(l_shipdate<=...)": "MScan",
		"DXchgUnion->n0":               "DXchgUnion",
		"Aggr(partial)[2 keys,8 aggs]": "Aggr",
		"HashJoin[inner,paired]":       "HashJoin",
		"Limit[10]":                    "other",
		"":                             "other",
	} {
		if got := opKind(label); got != want {
			t.Errorf("opKind(%q) = %q, want %q", label, got, want)
		}
	}
}
