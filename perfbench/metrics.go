package main

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares; TestMetricsMatchBenchmarkJSON keeps the two
// in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"cpu_ms_per_stmt", "ms"},
	{"geomean_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"q01_ms", "ms"},
	{"q09_ms", "ms"},
	{"q18_ms", "ms"},
	{"refresh_ms", "ms"},
	{"heap_live_mb", "MiB"},
	{"storage_ratio", "ratio"},
}

// perLayer is what the traced run reports, one group per module.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sql.compile_us", "us"},
		{"sql.parse_us", "us"},
		{"sql.bind_us", "us"},
		{"sql.decorrelate_us", "us"},
		{"sql.joinorder_us", "us"},
		{"sql.plancache_hit_ratio", "ratio"},
		{"sql.compiles_per_read", "count"},
		{"rewriter.rewrite_us", "us"},
		{"core.execute_ms", "ms"},
	}
	for _, k := range append(opKinds, "other") {
		defs = append(defs, metricDef{"exec." + k + ".incl_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"colstore.blocks_read", "count"},
		metricDef{"colstore.bytes_decoded", "bytes"},
		metricDef{"colstore.bytes_materialized", "bytes"},
		metricDef{"colstore.spans_pruned", "count"},
		metricDef{"colstore.cache_hit_ratio", "ratio"},
		metricDef{"colstore.cache_evictions", "count"},
		metricDef{"mpi.remote_bytes", "bytes"},
		metricDef{"mpi.remote_msgs", "count"},
		metricDef{"mpi.local_handoffs", "count"},
		metricDef{"mpi.codec_ns_per_byte", "ns/byte"},
		metricDef{"dml_p50_ms", "ms"},
		metricDef{"dml_p95_ms", "ms"},
		metricDef{"core.epoch_bumps_per_dml", "count"},
		metricDef{"pdt.flushes", "count"},
		metricDef{"pdt.flush_entries", "count"},
		metricDef{"wal.log_shipped_entries", "count"},
		metricDef{"server.queue_ms", "ms"},
		metricDef{"server.exec_ms", "ms"},
		metricDef{"server.wire_ms", "ms"},
		metricDef{"runtime.alloc_bytes_per_query", "bytes"},
		metricDef{"runtime.allocs_per_query", "count"},
		metricDef{"runtime.gc_cycles_per_query", "count"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.alloc_bytes.q01", "bytes"},
		metricDef{"runtime.alloc_bytes.q09", "bytes"},
		metricDef{"runtime.alloc_bytes.q18", "bytes"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"host.steal_frac", "ratio"},
	)
	for _, s := range spanNames {
		defs = append(defs, metricDef{"trace.self_ms." + s, "ms"})
	}
	return append(defs, metricDef{"failed_frac", "ratio"})
}()
