package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vectorh/internal/tpch"
)

// readSample is one read of a window. rows is kept only for reads whose
// answer is checked after the window.
type readSample struct {
	q     int
	lat   time.Duration
	check bool
	rows  [][]any
}

// tally counts every statement a run issues and every one that failed: an
// error, a wrong answer or a wrong affected-row count.
type tally struct {
	attempted, failed atomic.Int64
	logged            atomic.Int64
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	if t.logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// pairState tells reads whether the database stayed in its loaded state
// while they ran: open counts refresh pairs in flight, events counts pair
// starts and ends. A read that saw open == 0 before it started and the same
// events count after it returned overlapped no pair, so its answer must
// equal the golden answer.
type pairState struct{ open, events atomic.Int64 }

// window is what one timed window of closed-loop clients observed.
type window struct {
	mu    sync.Mutex
	reads []readSample
	dml   []time.Duration // refresh statements
	pairs []time.Duration // whole refresh pairs
	// qps sums each session's statements over its own elapsed time: the
	// throughput of closed-loop clients that each stop after a whole pass.
	qps float64
	// cpu is the process CPU time (user + system) the window used.
	cpu time.Duration
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during the window (0 where /proc/stat is unreadable).
	steal float64
}

// dmlLog collects refresh latencies: per statement and per pair.
type dmlLog struct{ stmts, pairs []time.Duration }

// run drives the statements of one run against the clients, counting into
// t and checking against golden.
type run struct {
	w      workload
	golden map[int][][]any
	seed   int64
	t      tally
	pairs  pairState
	stmtID atomic.Int64
	rec    *recorder // nil outside the traced window
}

// checkRead compares one answer with its golden answer.
func (r *run) checkRead(q int, rows [][]any) {
	if err := equalAnswers(rows, r.golden[q]); err != nil {
		r.t.fail("Q%02d wrong answer: %v", q, err)
	}
}

// readOnce issues one read and times it; it returns the rows, or ok false
// after counting a failure.
func (r *run) readOnce(ctx context.Context, c client, q int) ([][]any, time.Duration, bool) {
	stmt := r.stmtID.Add(1)
	r.t.attempted.Add(1)
	id, end := r.rec.begin("read", stmt, 0)
	t0 := time.Now()
	rows, err := c.read(ctx, q, stmt, id)
	lat := time.Since(t0)
	end()
	if err != nil {
		r.t.fail("Q%02d: %v", q, err)
		return nil, lat, false
	}
	return rows, lat, true
}

// checkedPass runs the 22 queries once in query order, untimed, checking
// every answer: the warm-up before a window and the final check after the
// last refresh.
func (r *run) checkedPass(ctx context.Context, c client) {
	for q := 1; q <= tpch.NumQueries; q++ {
		if rows, _, ok := r.readOnce(ctx, c, q); ok {
			r.checkRead(q, rows)
		}
	}
}

// refreshPair runs one RF1/RF2 pair, checking each statement's exact
// affected-row count, and logs the statement and pair latencies.
func (r *run) refreshPair(ctx context.Context, c client, g *refreshGen, log *dmlLog) {
	r.pairs.open.Add(1)
	r.pairs.events.Add(1)
	defer func() {
		r.pairs.events.Add(1)
		r.pairs.open.Add(-1)
	}()
	start := time.Now()
	defer func() { log.pairs = append(log.pairs, time.Since(start)) }()
	for _, st := range g.nextPair() {
		stmt := r.stmtID.Add(1)
		r.t.attempted.Add(1)
		id, end := r.rec.begin("dml", stmt, 0)
		t0 := time.Now()
		n, err := c.exec(ctx, st.sql, stmt, id)
		lat := time.Since(t0)
		end()
		switch {
		case err != nil:
			r.t.fail("refresh: %v", err)
			continue
		case n != st.want:
			r.t.fail("refresh affected %d rows, want %d: %.60s", n, st.want, st.sql)
		}
		log.stmts = append(log.stmts, lat)
	}
}

// session is one closed-loop client of a window: whole passes of the 22
// queries in a seeded shuffled order, with a refresh pair after every
// readsPerPair reads on serving workloads, until a pass ends past the
// deadline. Stopping only between passes keeps the statement mix of every
// window the same.
func (r *run) session(ctx context.Context, c client, g *refreshGen, rng *rand.Rand, deadline time.Time, win *window) {
	var reads []readSample
	var log dmlLog
	start := time.Now()
	for time.Now().Before(deadline) {
		for i, idx := range rng.Perm(tpch.NumQueries) {
			q := idx + 1
			events, open := r.pairs.events.Load(), r.pairs.open.Load()
			rows, lat, ok := r.readOnce(ctx, c, q)
			// A failed read keeps its latency, so every query has samples;
			// the failure itself is already counted.
			s := readSample{q: q, lat: lat}
			if ok && open == 0 && r.pairs.events.Load() == events {
				s.check, s.rows = true, rows
			}
			reads = append(reads, s)
			if r.w.readsPerPair > 0 && (i+1)%r.w.readsPerPair == 0 {
				r.refreshPair(ctx, c, g, &log)
			}
		}
	}
	elapsed := time.Since(start)
	win.mu.Lock()
	win.reads = append(win.reads, reads...)
	win.dml = append(win.dml, log.stmts...)
	win.pairs = append(win.pairs, log.pairs...)
	win.qps += float64(len(reads)+len(log.stmts)) / elapsed.Seconds()
	win.mu.Unlock()
}

// window runs one closed-loop session per client for at least d and
// returns what they observed. Each session shuffles with its own stream of
// the run seed.
func (r *run) window(ctx context.Context, clients []client, gens []*refreshGen, d time.Duration, salt int64) *window {
	win := &window{}
	cpu0, steal0 := processCPU(), readSteal()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		rng := rand.New(rand.NewSource(r.seed*7919 + salt*101 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.session(ctx, c, gens[i], rng, deadline, win)
		}()
	}
	wg.Wait()
	win.cpu = processCPU() - cpu0
	win.steal = readSteal().since(steal0)
	return win
}

// stealTicks is the steal and total time of the first line of /proc/stat.
type stealTicks struct{ steal, total uint64 }

func readSteal() stealTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return stealTicks{}
	}
	var t stealTicks
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealTicks{}
		}
		t.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = n
		}
	}
	return t
}

func (t stealTicks) since(t0 stealTicks) float64 {
	if t.total <= t0.total || t.steal < t0.steal {
		return 0
	}
	return ratio(float64(t.steal-t0.steal), float64(t.total-t0.total))
}

// processCPU returns the CPU time the process has used. In a virtual
// machine, time the hypervisor gives to other guests (steal) is not charged
// to the process, so this cost does not move with co-tenant load the way
// wall-clock latency does.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkWindow checks every read answer a window kept and drops the rows.
// It returns how many reads were checked.
func (r *run) checkWindow(win *window) int {
	n := 0
	for i := range win.reads {
		if s := &win.reads[i]; s.check {
			r.checkRead(s.q, s.rows)
			s.rows = nil
			n++
		}
	}
	return n
}
