package main

import (
	"runtime/metrics"
	"strconv"
	"strings"

	"vectorh"
	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/mpi"
	"vectorh/internal/sql"
)

// counters is one snapshot of every cumulative counter the program exposes
// through its public API. Per-layer metrics are deltas of two snapshots, so
// nothing inside the program is instrumented for the benchmark.
type counters struct {
	scan  core.ScanStats
	cache colstore.BlockCacheStats
	net   mpi.Stats
	plans sql.PlanCacheStats
	epoch int64
	// prom is a scrape of the engine registry — the exposition
	// Server.Metrics serves — for counters with no typed accessor (PDT
	// flushes, log shipping, the server's queue/exec histograms).
	prom map[string]float64
	rt   runtimeSample
}

func snapshot(db *vectorh.DB) counters {
	var sb strings.Builder
	_ = db.Obs().WritePrometheus(&sb) // its only error is the writer's, and a strings.Builder never fails
	return counters{
		scan:  db.ScanStats(),
		cache: db.BlockCacheStats(),
		net:   db.Net().Stats(),
		plans: db.PlanCacheStats(),
		epoch: db.CatalogEpoch(),
		prom:  parseProm(sb.String()),
		rt:    readRuntime(),
	}
}

// parseProm reads Prometheus text exposition into series name → value.
// Labelled series keep their label text in the name.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// runtimeSample holds the Go runtime counters behind the runtime.* metrics.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}
