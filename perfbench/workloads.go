package main

import "fmt"

// workload is one traffic mix. Every workload is a closed loop: each client
// sends its next statement only when the previous one has returned, so a
// slower engine receives proportionally less load. Each pass runs the 22
// TPC-H queries in an order shuffled by the workload seed.
type workload struct {
	name string
	sf   float64 // TPC-H scale factor of the loaded database

	// sessions > 0 serves the database with server.New on a loopback
	// listener and drives it from that many client sessions; 0 runs one
	// in-process client through the vectorh.DB API.
	sessions int
	// readsPerPair is how many reads a session runs between two refresh
	// pairs (serving workloads only). The DML share is fixed by statement
	// count, not by time, so a faster or slower DML path does not change
	// the mix.
	readsPerPair int

	// setups is how many times a run builds the database (core.New, DDL,
	// bulk load); setup_s is their median.
	setups int
	// probePairs is the number of refresh pairs an in-process workload runs
	// after its read window, for the dml_* metrics.
	probePairs int
}

// dataSeed seeds tpch.Generate. The database is a fixed fixture, as TPC-H's
// dbgen output is: --seed varies the statement order of every pass and the
// rows each refresh inserts, while golden answers (half a minute of
// baseline work at SF 0.1) are computed once per scale factor and cached.
const dataSeed = 42

var workloads = []workload{
	// power-hot: SF 0.01 (60k lineitem rows). About 8 MiB of decoded blocks
	// sit in the default 64 MiB block cache with no evictions, and the plan
	// cache is warm, so compile and decode drop out. This isolates exec and
	// expression evaluation, DXchg and GC, which profile at about 30% (Q01
	// expressions), 26% (exchange) and 11% (GC marking) of CPU. A pass takes
	// roughly 200 ms, so a 20 s window gives each query ~100 samples.
	{name: "power-hot", sf: 0.01, setups: 3, probePairs: 200},

	// power-evict: SF 0.1 (600k lineitem rows). The decoded working set is
	// larger than the 64 MiB block cache: the cache stays at its cap with
	// about a thousand evictions and a quarter of lookups missing per pass,
	// so colstore/compress scan decode does real work, and bulk load takes
	// about 10 s against 1 s at SF 0.01. A change that buys speed with cache
	// footprint or decode work shows here and not on power-hot.
	{name: "power-evict", sf: 0.1, setups: 2, probePairs: 12},

	// serve-refresh: SF 0.01 behind vectorh-serve's server on loopback TCP,
	// two sessions (one per core of the 2-core reference box). Reads are
	// wire-level prepared statements; after every second read a session
	// runs a refresh pair: RF1 INSERTs of orders and lineitems into its own
	// key range, then RF2 DELETEs of the same keys, so the database returns
	// to its loaded state after every pair. Every commit bumps the catalog
	// epoch and flushes the plan cache, so this is the one workload where
	// SQL compilation, PDT-merging scans, commits and wire framing work.
	{name: "serve-refresh", sf: 0.01, sessions: 2, readsPerPair: 2, setups: 3},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
