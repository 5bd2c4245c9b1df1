package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"vectorh"
	"vectorh/internal/obs"
	"vectorh/internal/server"
	"vectorh/internal/tpch"
)

// client is one closed-loop session's path into the program. parent is the
// id of the statement's root span (0 when the window is untraced).
type client interface {
	read(ctx context.Context, q int, stmt, parent int64) ([][]any, error)
	exec(ctx context.Context, sql string, stmt, parent int64) (int64, error)
}

// localClient calls the public vectorh.DB API in process. Untraced, a read
// is QuerySQLContext, exactly what an embedding application calls. Traced,
// it is QueryProfileSQL, which returns the compile and execute phases, the
// per-operator profile and the scan IO of the statement.
type localClient struct {
	db     *vectorh.DB
	rec    *recorder
	layers *layerAcc
}

func (c *localClient) read(ctx context.Context, q int, stmt, parent int64) ([][]any, error) {
	if c.rec == nil {
		return c.db.QuerySQLContext(ctx, tpch.SQLQueries[q])
	}
	a0 := readRuntime().allocBytes
	_, end := c.rec.begin("db.QueryProfileSQL", stmt, parent)
	p, err := c.db.QueryProfileSQL(ctx, tpch.SQLQueries[q])
	end()
	if err != nil {
		return nil, err
	}
	c.layers.addRead(q, p.Phases, p.Operators, readRuntime().allocBytes-a0)
	return p.Rows, nil
}

func (c *localClient) exec(ctx context.Context, sql string, stmt, parent int64) (int64, error) {
	_, end := c.rec.begin("db.ExecSQL", stmt, parent)
	defer end()
	return c.db.ExecSQLContext(ctx, sql)
}

// wireClient is one vectorh-serve session over loopback TCP: reads are
// wire-level prepared statements (prepared once per session), refresh
// statements are ad-hoc Exec requests.
type wireClient struct {
	c     *server.Client
	stmts map[int]*server.PreparedStmt
	rec   *recorder
}

func dialWire(addr string, rec *recorder) (*wireClient, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	w := &wireClient{c: c, stmts: make(map[int]*server.PreparedStmt), rec: rec}
	for q := 1; q <= tpch.NumQueries; q++ {
		ps, err := c.Prepare(tpch.SQLQueries[q])
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("prepare Q%02d: %w", q, err)
		}
		w.stmts[q] = ps
	}
	return w, nil
}

func (w *wireClient) read(ctx context.Context, q int, stmt, parent int64) ([][]any, error) {
	_, end := w.rec.begin("wire.Query", stmt, parent)
	res, err := w.stmts[q].Query(ctx)
	end()
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (w *wireClient) exec(ctx context.Context, sql string, stmt, parent int64) (int64, error) {
	_, end := w.rec.begin("wire.Exec", stmt, parent)
	defer end()
	return w.c.Exec(ctx, sql)
}

// layerAcc accumulates the per-statement layer data of a traced window:
// phase times, per-operator-kind inclusive time and per-query allocation.
type layerAcc struct {
	mu     sync.Mutex
	reads  int64
	phases map[string]float64 // phase name → total ms
	ops    map[string]float64 // operator kind → total inclusive ms
	alloc  map[int][]float64  // query → bytes allocated per execution
}

func newLayerAcc() *layerAcc {
	return &layerAcc{phases: map[string]float64{}, ops: map[string]float64{}, alloc: map[int][]float64{}}
}

func (a *layerAcc) addRead(q int, phases []obs.Phase, ops []obs.OpProfile, allocBytes uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reads++
	for _, p := range phases {
		a.phases[p.Name] += ms(p.Nanos)
	}
	for _, op := range ops {
		a.ops[opKind(op.Label)] += ms(op.Nanos)
	}
	a.alloc[q] = append(a.alloc[q], float64(allocBytes))
}

// addSlowEntry folds in one read as the server's slow-query log reports it.
// The log carries only the top three operators of each statement.
func (a *layerAcc) addSlowEntry(e obs.SlowEntry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reads++
	for _, p := range e.Phases {
		a.phases[p.Name] += float64(p.Micros) / 1e3
	}
	for _, op := range e.TopOps {
		a.ops[opKind(op.Op)] += float64(op.Micros) / 1e3
	}
}

// opKinds are the operator kinds the 22 plans use, by the label prefix
// EXPLAIN ANALYZE prints; anything else is counted as "other".
var opKinds = []string{"MScan", "Select", "Project", "HashJoin", "MergeJoin", "Aggr",
	"Sort", "TopN", "DXchgHashSplit", "DXchgUnion"}

// opKind maps an EXPLAIN ANALYZE label such as "MScan[lineitem] (...)" or
// "DXchgUnion->n0" to its kind.
func opKind(label string) string {
	end := strings.IndexFunc(label, func(r rune) bool {
		return !(r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z')
	})
	if end >= 0 {
		label = label[:end]
	}
	for _, k := range opKinds {
		if k == label {
			return k
		}
	}
	return "other"
}
