package main

import (
	"math"

	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

// dmlStep is one refresh statement and the exact row count it must affect.
type dmlStep struct {
	sql  string
	want int64
}

// refreshGen renders refresh pairs for one client: RF1 inserts a batch of
// new orders with their lineitems, then RF2 deletes exactly those keys, so
// the logical database is back in its loaded state after every pair. The
// RF1 rows are generated up front (a small pool, cycled), so the generated
// database can be released before the timed window.
type refreshGen struct {
	orders, items []*vector.Batch
	// origOrders/origItems keep each pool entry's generated keys; a pair
	// rewrites the key columns to its own key range before rendering.
	origOrders, origItems [][]int64
	keyBase               int64
	next                  int // index of the next pair
}

const (
	refreshPool = 64
	// sessionKeySpan separates the key ranges of concurrent sessions.
	sessionKeySpan = 10_000_000
	rowsPerInsert  = 500
)

// ordersPerPair follows the TPC-H refresh size: SF × 1500 new orders.
func ordersPerPair(sf float64) int { return int(math.Ceil(sf * 1500)) }

func newRefreshGen(d *tpch.Data, seed int64, session int) *refreshGen {
	g := &refreshGen{keyBase: int64(session) * sessionKeySpan}
	n := ordersPerPair(d.SF)
	for i := 0; i < refreshPool; i++ {
		o, l := tpch.RF1(d, n, seed*1000+int64(session)*100+int64(i))
		o, l = o.Compact(), l.Compact()
		g.orders = append(g.orders, o)
		g.items = append(g.items, l)
		g.origOrders = append(g.origOrders, append([]int64(nil), o.Col(0).Int64s()...))
		g.origItems = append(g.origItems, append([]int64(nil), l.Col(0).Int64s()...))
	}
	return g
}

// nextPair returns the statements of the next refresh pair: the RF1
// inserts, then the RF2 deletes of the same keys. Every pair of every
// session uses keys no other pair uses.
func (g *refreshGen) nextPair() []dmlStep {
	j := g.next
	g.next++
	e := j % refreshPool
	o, l := g.orders[e], g.items[e]
	off := g.keyBase + int64(j)*int64(o.Len())
	ok, lk := o.Col(0).Int64s(), l.Col(0).Int64s()
	for i, k := range g.origOrders[e] {
		ok[i] = k + off
	}
	for i, k := range g.origItems[e] {
		lk[i] = k + off
	}
	var steps []dmlStep
	steps = append(steps, insertSteps("orders", tpch.OrdersSchema, o)...)
	steps = append(steps, insertSteps("lineitem", tpch.LineitemSchema, l)...)
	del := tpch.RF2SQL(ok)
	steps = append(steps,
		dmlStep{sql: del[0], want: int64(l.Len())},
		dmlStep{sql: del[1], want: int64(o.Len())})
	return steps
}

func insertSteps(table string, schema vector.Schema, b *vector.Batch) []dmlStep {
	stmts := tpch.InsertSQL(table, schema, b, rowsPerInsert)
	steps := make([]dmlStep, len(stmts))
	for i, s := range stmts {
		steps[i] = dmlStep{sql: s, want: int64(min(rowsPerInsert, b.Len()-i*rowsPerInsert))}
	}
	return steps
}
