package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vectorh/internal/tpch"
)

// fakeClient answers every read with the golden answer (or an error for
// query wrongQ) and every refresh statement with its expected row count,
// which it learns from the generator's step list. Each call takes 100µs, so
// a short window holds a handful of passes.
type fakeClient struct {
	golden map[int][][]any
	wrongQ int
	want   map[string]int64
	execs  atomic.Int64
}

func (f *fakeClient) read(_ context.Context, q int, _, _ int64) ([][]any, error) {
	time.Sleep(100 * time.Microsecond)
	if q == f.wrongQ {
		return nil, errors.New("boom")
	}
	return f.golden[q], nil
}

func (f *fakeClient) exec(_ context.Context, sql string, _, _ int64) (int64, error) {
	time.Sleep(100 * time.Microsecond)
	f.execs.Add(1)
	return f.want[sql], nil
}

// TestWindowSessions runs two concurrent sessions through the window loop
// (run it with -race) and checks the tallies, the whole-pass stop rule and
// the refresh-pair bookkeeping.
func TestWindowSessions(t *testing.T) {
	d := tpch.Generate(0.001, 1)
	golden := map[int][][]any{}
	for q := 1; q <= tpch.NumQueries; q++ {
		golden[q] = [][]any{{int64(q), 1.5}}
	}
	r := &run{w: workload{readsPerPair: 2}, golden: golden, seed: 3, rec: newRecorder()}
	gens := []*refreshGen{newRefreshGen(d, 3, 0), newRefreshGen(d, 3, 1)}
	want := map[string]int64{}
	for s, g := range []*refreshGen{newRefreshGen(d, 3, 0), newRefreshGen(d, 3, 1)} {
		for i := 0; i < 400; i++ {
			for _, st := range g.nextPair() {
				if old, dup := want[st.sql]; dup && old != st.want {
					t.Fatalf("session %d pair %d: statement reused with another count", s, i)
				}
				want[st.sql] = st.want
			}
		}
	}
	a, b := &fakeClient{golden: golden, want: want}, &fakeClient{golden: golden, want: want}
	win := r.window(context.Background(), []client{a, b}, gens, 20*time.Millisecond, 0)

	if n := len(win.reads); n == 0 || n%tpch.NumQueries != 0 {
		t.Fatalf("%d reads, want a positive multiple of %d (whole passes)", n, tpch.NumQueries)
	}
	if got, want := len(win.pairs), len(win.reads)/2; got != want {
		t.Errorf("%d refresh pairs, want %d (one per two reads)", got, want)
	}
	if int64(len(win.dml)) != a.execs.Load()+b.execs.Load() {
		t.Errorf("%d refresh latencies for %d statements", len(win.dml), a.execs.Load()+b.execs.Load())
	}
	if r.pairs.open.Load() != 0 {
		t.Errorf("%d refresh pairs still open", r.pairs.open.Load())
	}
	r.checkWindow(win)
	if f := r.t.failed.Load(); f != 0 {
		t.Errorf("%d failures on correct answers", f)
	}
	if a := r.t.attempted.Load(); a != int64(len(win.reads)+len(win.dml)) {
		t.Errorf("attempted %d, want %d", a, len(win.reads)+len(win.dml))
	}
	if got := len(r.rec.all()); got != len(win.reads)+len(win.dml) {
		t.Errorf("%d spans, want one root per statement (%d)", got, len(win.reads)+len(win.dml))
	}

	// A failing query and a wrong answer each count as failures.
	r2 := &run{w: workload{}, golden: golden}
	r2.checkedPass(context.Background(), &fakeClient{golden: golden, wrongQ: 5})
	r2.checkRead(7, [][]any{{int64(7), 1.6}})
	if f := r2.t.failed.Load(); f != 2 {
		t.Errorf("failed = %d, want 2", f)
	}
}
