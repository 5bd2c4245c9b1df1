// Command perfbench is the repository's benchmark: it drives the 22 TPC-H
// SQL queries and the RF1/RF2 refresh statements through the public
// vectorh.DB API, and for one workload through the vectorh-serve server over
// loopback TCP, checks every answer against the independent baseline engine,
// and prints one JSON result line. See README.md for the workloads, the
// metrics and how to read the trace dump.
//
//	go run . -workload power-hot -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vectorh"
	"vectorh/internal/colstore"
	"vectorh/internal/obs"
	"vectorh/internal/server"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: power-hot, power-evict or serve-refresh")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (statement order and refresh rows)")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build/perfbench", "directory for cached golden answers and trace dumps")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := benchmark(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

const partitions = 6

// engineConfig is the cluster vectorh-serve and the SQL REPL start: three
// nodes with two exchange threads each and the default 64 MiB block cache.
func engineConfig() vectorh.Config {
	return vectorh.Config{
		Nodes:          []string{"node1", "node2", "node3"},
		ThreadsPerNode: 2,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
	}
}

// setup is what setup_s times: core.New, the DDL and the bulk load.
func setup(d *tpch.Data) (*vectorh.DB, time.Duration, error) {
	t0 := time.Now()
	db, err := vectorh.Open(engineConfig())
	if err != nil {
		return nil, 0, err
	}
	if err := tpch.LoadIntoEngine(db.Engine, d, partitions); err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	return db, time.Since(t0), nil
}

func storageRatio(db *vectorh.DB) float64 {
	var raw, enc int64
	for _, t := range db.TableStorage() {
		raw += t.RawBytes
		enc += t.EncodedBytes
	}
	return ratio(float64(enc), float64(raw))
}

// heapLiveMB is the live heap after a forced GC. It is taken after the
// warm-up pass, when the plan and block caches hold what the window will
// use: at the end of serve-refresh's window the heap also holds the PDT
// entries of every refresh pair the window fitted, so it would grow with
// throughput and read a faster engine as a memory regression.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// openClients opens the sessions of a window: one in-process client, or
// w.sessions wire sessions against a fresh server over db. stop ends the
// sessions and stops the server, waiting for both.
func openClients(db *vectorh.DB, w workload, rec *recorder, acc *layerAcc, opt server.Options) (cs []client, stop func(), err error) {
	if w.sessions == 0 {
		return []client{&localClient{db: db, rec: rec, layers: acc}}, func() {}, nil
	}
	srv := server.New(db, opt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	var wires []*wireClient
	stop = func() {
		for _, wc := range wires {
			wc.c.Close()
		}
		srv.Close()
	}
	for i := 0; i < w.sessions; i++ {
		wc, err := dialWire(addr.String(), rec)
		if err != nil {
			stop()
			return nil, nil, err
		}
		wires = append(wires, wc)
		cs = append(cs, wc)
	}
	return cs, stop, nil
}

func benchmark(ctx context.Context, o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	d := tpch.Generate(w.sf, dataSeed)
	golden, err := loadGolden(o.workDir, d, dataSeed)
	if err != nil {
		return nil, err
	}
	gens := make([]*refreshGen, max(1, w.sessions))
	for i := range gens {
		gens[i] = newRefreshGen(d, o.seed, i)
	}
	var sample []*vector.Batch
	if o.trace {
		sample = codecSample(d)
	}
	setups := w.setups
	if o.trace {
		setups = 1 // setup_s is an end-to-end metric; the traced run needs one database
	}
	var db *vectorh.DB
	var setupS []float64
	for i := 0; i < setups; i++ {
		db = nil
		runtime.GC()
		var dur time.Duration
		if db, dur, err = setup(d); err != nil {
			return nil, err
		}
		setupS = append(setupS, dur.Seconds())
	}
	storage := storageRatio(db)
	// d is not used past this point, so the generated input is garbage
	// before anything is measured.

	r := &run{w: w, golden: golden, seed: o.seed}
	var metrics map[string]float64
	if o.trace {
		metrics, err = r.traced(ctx, db, gens, sample, o)
	} else {
		metrics, err = r.untraced(ctx, db, gens, time.Duration(o.seconds)*time.Second)
	}
	if err != nil {
		return nil, err
	}
	metrics["setup_s"] = median(setupS)
	metrics["storage_ratio"] = storage
	att, failed := r.t.attempted.Load(), r.t.failed.Load()
	metrics["failed_frac"] = ratio(float64(failed), float64(att))
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	printTable(os.Stderr, o, res, metrics)
	return res, nil
}

// untraced runs the end-to-end measurement: warm-up, one timed window, the
// answer checks, the refresh probe of in-process workloads and a final
// checked pass.
func (r *run) untraced(ctx context.Context, db *vectorh.DB, gens []*refreshGen, d time.Duration) (map[string]float64, error) {
	cs, closeClients, err := openClients(db, r.w, nil, nil, server.Options{})
	if err != nil {
		return nil, err
	}
	defer closeClients()
	r.checkedPass(ctx, cs[0])
	heap := heapLiveMB()
	win := r.window(ctx, cs, gens, d, 0)
	checked := r.checkWindow(win)
	m := latencyMetrics(win)
	m["heap_live_mb"] = heap
	log := r.refreshLog(ctx, cs[0], gens[0], win)
	r.checkedPass(ctx, cs[0])
	m["refresh_ms"] = median(msAll(log.pairs))
	fmt.Fprintf(os.Stderr, "perfbench: %d reads (%d answers checked), %d refresh pairs of %d statements, host steal %.1f%%\n",
		len(win.reads), checked, len(log.pairs), len(log.stmts), 100*win.steal)
	return m, nil
}

// refreshLog returns the refresh latencies of a run: those of the window on
// a serving workload, else those of w.probePairs pairs run after the window
// by the in-process client.
func (r *run) refreshLog(ctx context.Context, c client, g *refreshGen, win *window) dmlLog {
	if r.w.sessions > 0 {
		return dmlLog{stmts: win.dml, pairs: win.pairs}
	}
	var log dmlLog
	for i := 0; i < r.w.probePairs; i++ {
		// Every pair starts from a fresh GC cycle, so what it pays for
		// collection is its own allocation, not the window's leftover
		// garbage, wherever the pacer happened to be.
		runtime.GC()
		r.refreshPair(ctx, c, g, &log)
	}
	return log
}

// latencyMetrics computes the window's read metrics.
func latencyMetrics(win *window) map[string]float64 {
	byQ := make(map[int][]float64)
	for _, s := range win.reads {
		byQ[s.q] = append(byQ[s.q], ms(s.lat))
	}
	// read_p95_ms is taken per query and averaged like geomean_ms. A p95
	// over all reads would fall on the step between the slowest query and
	// the rest (each query is 1/22 of the reads), so it would mostly repeat
	// q18_ms and jump whenever that step moved.
	var medians, p95s []float64
	for q := 1; q <= tpch.NumQueries; q++ {
		medians = append(medians, median(byQ[q]))
		p95s = append(p95s, percentile(byQ[q], 95))
	}
	return map[string]float64{
		"qps":             win.qps,
		"cpu_ms_per_stmt": ms(win.cpu) / float64(len(win.reads)+len(win.dml)),
		"geomean_ms":      geomean(medians),
		"read_p95_ms":     geomean(p95s),
		"q01_ms":          median(byQ[1]),
		"q09_ms":          median(byQ[9]),
		"q18_ms":          median(byQ[18]),
	}
}

// traced runs the per-layer measurement: an untraced half window and a
// traced half window of the same length (their ratio is the tracing
// overhead), then the refresh, compile and codec probes.
func (r *run) traced(ctx context.Context, db *vectorh.DB, gens []*refreshGen, sample []*vector.Batch, o options) (map[string]float64, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	cs, closeClients, err := openClients(db, r.w, nil, nil, server.Options{})
	if err != nil {
		return nil, err
	}
	r.checkedPass(ctx, cs[0])
	runtime.GC()
	plain := r.window(ctx, cs, gens, half, 0)
	r.checkWindow(plain)
	closeClients()

	rec, acc := newRecorder(), newLayerAcc()
	var slow bytes.Buffer
	// On the serving workload the server's slow-query log at a 1ns threshold
	// reports every statement's server-side phases and top operators.
	opt := server.Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &slow}
	cs, closeClients, err = openClients(db, r.w, rec, acc, opt)
	if err != nil {
		return nil, err
	}
	r.rec = rec
	runtime.GC()
	c0 := snapshot(db)
	win := r.window(ctx, cs, gens, half, 1)
	c1 := snapshot(db)
	r.checkWindow(win)
	// The refresh counters span the window on a serving workload and the
	// refresh probe after it in process.
	d0, d1 := c0, c1
	log := r.refreshLog(ctx, cs[0], gens[0], win)
	if r.w.sessions == 0 {
		d0, d1 = c1, snapshot(db)
	}
	closeClients()
	if err := foldSlowLog(&slow, acc); err != nil {
		return nil, err
	}
	compile, err := r.compileProbe(db)
	if err != nil {
		return nil, err
	}
	codec, err := codecProbe(sample)
	if err != nil {
		return nil, err
	}
	r.rec = nil
	spans := rec.all()
	summary := summarize(spans)
	dump := filepath.Join(o.workDir, "traces", fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
	if err := writeDump(dump, spans, summary); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), dump)

	// The final check runs on fresh untraced clients, after the last refresh.
	cs, closeClients, err = openClients(db, r.w, nil, nil, server.Options{})
	if err != nil {
		return nil, err
	}
	r.checkedPass(ctx, cs[0])
	closeClients()

	m := layerMetrics(win, acc, c0, c1, d0, d1, len(log.stmts))
	for name, v := range compile {
		m["sql."+name+"_us"] = v
	}
	m["mpi.codec_ns_per_byte"] = codec
	m["host.steal_frac"] = win.steal
	m["trace.overhead_frac"] = plain.qps/win.qps - 1
	for _, name := range spanNames {
		s := summary[name]
		m["trace.self_ms."+name] = ratio(float64(s.SelfNs)/1e6, float64(s.Count))
	}
	m["dml_p50_ms"] = percentile(msAll(log.stmts), 50)
	m["dml_p95_ms"] = percentile(msAll(log.stmts), 95)
	m["server.wire_ms"] = 0
	if r.w.sessions > 0 {
		var sum float64
		for _, s := range win.reads {
			sum += ms(s.lat)
		}
		for _, x := range msAll(win.dml) {
			sum += x
		}
		n := float64(len(win.reads) + len(win.dml))
		m["server.wire_ms"] = ratio(sum, n) - m["server.queue_ms"] - m["server.exec_ms"]
	}
	return m, nil
}

// foldSlowLog adds every read the server's slow-query log recorded to acc.
// DML entries carry no phases and are skipped.
func foldSlowLog(log *bytes.Buffer, acc *layerAcc) error {
	for _, line := range strings.Split(log.String(), "\n") {
		if line == "" {
			continue
		}
		var e obs.SlowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return fmt.Errorf("slow log: %w", err)
		}
		if len(e.Phases) > 0 {
			acc.addSlowEntry(e)
		}
	}
	return nil
}

// spanNames are the spans the benchmark records: statement roots ("read",
// "dml") and the layer calls under them.
var spanNames = []string{"read", "dml", "db.QueryProfileSQL", "db.ExecSQL", "wire.Query", "wire.Exec", "sql.CompileTraced"}

// layerMetrics turns the traced window (counters c0→c1) and the refresh
// statements (counters d0→d1, ndml statements) into per-layer metrics.
func layerMetrics(win *window, acc *layerAcc, c0, c1, d0, d1 counters, ndml int) map[string]float64 {
	reads := float64(len(win.reads))
	stmts := float64(len(win.reads) + len(win.dml))
	m := make(map[string]float64)

	hits := float64(c1.plans.Hits - c0.plans.Hits)
	misses := float64(c1.plans.Misses - c0.plans.Misses)
	m["sql.plancache_hit_ratio"] = ratio(hits, hits+misses)
	m["sql.compiles_per_read"] = ratio(misses, reads)

	m["rewriter.rewrite_us"] = ratio(acc.phases["rewrite"]*1e3, float64(acc.reads))
	m["core.execute_ms"] = ratio(acc.phases["execute"], float64(acc.reads))
	for _, k := range append(opKinds, "other") {
		m["exec."+k+".incl_ms"] = ratio(acc.ops[k], float64(acc.reads))
	}

	m["colstore.blocks_read"] = ratio(float64(c1.scan.BlocksRead-c0.scan.BlocksRead), reads)
	m["colstore.bytes_decoded"] = ratio(float64(c1.scan.BytesDecoded-c0.scan.BytesDecoded), reads)
	m["colstore.bytes_materialized"] = ratio(float64(c1.scan.BytesMaterialized-c0.scan.BytesMaterialized), reads)
	m["colstore.spans_pruned"] = ratio(float64(c1.scan.SpansPruned-c0.scan.SpansPruned), reads)
	ch, cm := float64(c1.cache.Hits-c0.cache.Hits), float64(c1.cache.Misses-c0.cache.Misses)
	m["colstore.cache_hit_ratio"] = ratio(ch, ch+cm)
	m["colstore.cache_evictions"] = ratio(float64(c1.cache.Evictions-c0.cache.Evictions), reads)

	m["mpi.remote_bytes"] = ratio(float64(c1.net.RemoteBytes-c0.net.RemoteBytes), reads)
	m["mpi.remote_msgs"] = ratio(float64(c1.net.RemoteMsgs-c0.net.RemoteMsgs), reads)
	m["mpi.local_handoffs"] = ratio(float64(c1.net.LocalHandoffs-c0.net.LocalHandoffs), reads)

	nd := float64(ndml)
	prom := func(a, b counters, name string) float64 { return b.prom[name] - a.prom[name] }
	m["core.epoch_bumps_per_dml"] = ratio(float64(d1.epoch-d0.epoch), nd)
	m["pdt.flushes"] = ratio(prom(d0, d1, "vectorh_pdt_flushes_total"), nd)
	m["pdt.flush_entries"] = ratio(prom(d0, d1, "vectorh_pdt_flush_entries_total"), nd)
	m["wal.log_shipped_entries"] = ratio(prom(d0, d1, "vectorh_log_shipped_entries_total"), nd)

	m["server.queue_ms"] = 1e3 * ratio(prom(c0, c1, "vectorh_query_queue_seconds_sum"), prom(c0, c1, "vectorh_query_queue_seconds_count"))
	m["server.exec_ms"] = 1e3 * ratio(prom(c0, c1, "vectorh_query_exec_seconds_sum"), prom(c0, c1, "vectorh_query_exec_seconds_count"))

	m["runtime.alloc_bytes_per_query"] = ratio(float64(c1.rt.allocBytes-c0.rt.allocBytes), stmts)
	m["runtime.allocs_per_query"] = ratio(float64(c1.rt.allocObjects-c0.rt.allocObjects), stmts)
	m["runtime.gc_cycles_per_query"] = ratio(float64(c1.rt.gcCycles-c0.rt.gcCycles), stmts)
	m["runtime.gc_cpu_frac"] = ratio(c1.rt.gcCPU-c0.rt.gcCPU, c1.rt.totalCPU-c0.rt.totalCPU)
	for _, q := range []int{1, 9, 18} {
		v := 0.0
		if len(acc.alloc[q]) > 0 {
			v = median(acc.alloc[q])
		}
		m[fmt.Sprintf("runtime.alloc_bytes.q%02d", q)] = v
	}
	return m
}

func printTable(w *os.File, o options, res *result, all map[string]float64) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%d trace=%v correct=%v attempted=%d failed=%d failed_frac=%g\n",
		o.workload, o.seed, o.seconds, o.trace, res.Correct, res.Attempted, res.Failed, all["failed_frac"])
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
