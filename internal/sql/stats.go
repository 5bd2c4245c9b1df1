package sql

import (
	"math"

	"vectorh/internal/sql/joinorder"
)

// This file is phase 3 of the multi-phase SELECT planner: stats-driven join
// ordering. Base-table cardinalities come from the catalog's row counts and
// are scaled by per-conjunct selectivities estimated from colstore MinMax
// column ranges (both optional interfaces of the catalog, implemented by
// core.Engine). The ordering itself is joinorder.Greedy; blocks with outer
// joins, derived tables without stats, or a stats-less catalog keep their
// written FROM order, so hand-shaped plans and catalog-less tests are
// unaffected.

// tableStats is the optional row-count interface of the catalog.
type tableStats interface {
	TableRows(table string) (int64, error)
}

// columnStats is the optional MinMax-range interface of the catalog, the
// SQL-layer view of the colstore block summaries (integer-backed kinds:
// int32/int64 and dates).
type columnStats interface {
	ColumnRange(table, col string) (lo, hi int64, ok bool)
}

// defaultSel is the selectivity charged to a pushed conjunct whose shape or
// column kind yields no MinMax estimate (the classic 1/3 guess).
const defaultSel = 1.0 / 3

// estimateRows estimates a base source's output rows after its pushed
// conjuncts, alongside the unfiltered base-table row count. ok is false when
// the catalog has no stats for it.
//
// Comparisons of one integer-backed column against literals are first
// intersected into a single [lo, hi] interval per column, so a one-month
// window `d >= X and d < X + 1 month` is charged its overlap with the
// column's MinMax range once, not as two independent half-ranges.
func (b *block) estimateRows(s *source, pushed []Expr) (rows, base float64, ok bool) {
	if s.table == "" {
		return 0, 0, false
	}
	ts, ok := b.cat.(tableStats)
	if !ok {
		return 0, 0, false
	}
	n, err := ts.TableRows(s.table)
	if err != nil {
		return 0, 0, false
	}
	base = float64(n)
	rows = base
	cs, hasCS := b.cat.(columnStats)
	type interval struct{ lo, hi, colLo, colHi int64 }
	var cols []string // first-seen order, for a deterministic product
	ranges := make(map[string]*interval)
	for _, c := range pushed {
		if hasCS {
			if col, lo, hi, isRange := rangeConj(c); isRange {
				if clo, chi, known := cs.ColumnRange(s.table, col); known && chi >= clo {
					iv := ranges[col]
					if iv == nil {
						iv = &interval{lo: clo, hi: chi, colLo: clo, colHi: chi}
						ranges[col] = iv
						cols = append(cols, col)
					}
					iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
					continue
				}
			}
		}
		sel := defaultSel
		if hasCS {
			sel = conjSelectivity(s.table, c, cs)
		}
		rows *= sel
	}
	// The uniform-distribution overlap fraction mirrors what the scan-level
	// MinMax skipping achieves physically.
	for _, col := range cols {
		iv := ranges[col]
		rows *= max(0, float64(iv.hi-iv.lo)+1) / (float64(iv.colHi-iv.colLo) + 1)
	}
	if rows < 1 {
		rows = 1
	}
	return rows, base, true
}

// rangeConj recognizes a comparison of a column against integer-backed
// literals (ints and dates) — =, <, <=, >, >= in either orientation, or
// BETWEEN — and returns the inclusive value interval it admits.
func rangeConj(c Expr) (col string, lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch x := c.(type) {
	case *BinExpr:
		cr, okCol := x.L.(*ColRef)
		lit, okLit := litOf(x.R)
		op := x.Op
		if !okCol || !okLit {
			if cr, okCol = x.R.(*ColRef); !okCol {
				return "", 0, 0, false
			}
			if lit, okLit = litOf(x.L); !okLit {
				return "", 0, 0, false
			}
			op = flipCmp(op)
		}
		if lit.cls != classInt {
			return "", 0, 0, false
		}
		switch op {
		case "=":
			lo, hi = lit.i, lit.i
		case "<":
			hi = lit.i - 1
		case "<=":
			hi = lit.i
		case ">":
			lo = lit.i + 1
		case ">=":
			lo = lit.i
		default:
			return "", 0, 0, false
		}
		return cr.Name, lo, hi, true
	case *BetweenExpr:
		cr, okCol := x.E.(*ColRef)
		l, okLo := litOf(x.Lo)
		h, okHi := litOf(x.Hi)
		if !okCol || !okLo || !okHi || l.cls != classInt || h.cls != classInt {
			return "", 0, 0, false
		}
		return cr.Name, l.i, h.i, true
	}
	return "", 0, 0, false
}

// conjSelectivity estimates the selectivity of a conjunct that is not a
// literal range over one column (those are intersected by estimateRows): an
// IN list over an integer-backed column is charged its share of the column's
// MinMax width, anything else the 1/3 default.
func conjSelectivity(table string, c Expr, cs columnStats) float64 {
	x, isIn := c.(*InExpr)
	if !isIn || x.Not || len(x.Ints) == 0 {
		return defaultSel
	}
	col, okCol := x.E.(*ColRef)
	if !okCol {
		return defaultSel
	}
	lo, hi, ok := cs.ColumnRange(table, col.Name)
	if !ok || hi < lo {
		return defaultSel
	}
	return min(1, float64(len(x.Ints))/(float64(hi-lo)+1))
}

// distinctEst estimates the distinct values of a join-key column: the
// column's MinMax width when the catalog has an integer range for it, capped
// by the source's base-table rows (a relation cannot hold more distinct keys
// than rows). Without a range the estimate is the base row count itself —
// the FK-side assumption that every row carries a distinct key, which keeps
// high-distinct FK edges preferred over low-distinct ones like nationkey.
func (b *block) distinctEst(s *source, col string, base float64) float64 {
	v := base
	if cs, ok := b.cat.(columnStats); ok && s.table != "" {
		if lo, hi, ok2 := cs.ColumnRange(s.table, col); ok2 && hi >= lo {
			if w := float64(hi-lo) + 1; w < v {
				v = w
			}
		}
	}
	if v < 1 {
		v = 1
	}
	return v
}

// orderSources decides the join order of the block's visible sources. The
// greedy search applies only when no source is outer-joined and every
// visible source is a base table with catalog row counts; otherwise (and for
// a disconnected join graph) the written FROM order stands. pushed holds the
// per-source single-table conjuncts for selectivity scaling; the estimate is
// recorded on each source for EXPLAIN either way.
func (b *block) orderSources(pushed map[*source][]Expr) []int {
	var vis []int
	for i, s := range b.srcs {
		if !s.hidden {
			vis = append(vis, i)
		}
	}
	fromOrder := append([]int(nil), vis...)
	ordered := true
	rels := make([]joinorder.Rel, len(vis))
	baseRows := make(map[*source]float64, len(vis))
	for k, i := range vis {
		s := b.srcs[i]
		rows, base, ok := b.estimateRows(s, pushed[s])
		s.rows = rows
		baseRows[s] = base
		if !ok || s.kind == srcLeftOuter {
			ordered = false
		}
		rels[k] = joinorder.Rel{Rows: rows, Base: base}
	}
	if !ordered || len(vis) < 2 {
		return fromOrder
	}

	// Join edges from the pooled ON equality conjuncts, each carrying the
	// distinct-value estimate of its key on both sides (MinMax width capped
	// by the side's base rows) so Greedy can cost the join output.
	idx := make(map[*source]int, len(vis))
	for k, i := range vis {
		idx[b.srcs[i]] = k
	}
	var edges []joinorder.Edge
	for _, i := range vis {
		s := b.srcs[i]
		if s.on == nil {
			continue
		}
		for _, c := range splitAnd(s.on) {
			be, ok := c.(*BinExpr)
			if !ok || be.Op != "=" {
				continue
			}
			lc, lok := be.L.(*ColRef)
			rc, rok := be.R.(*ColRef)
			if !lok || !rok {
				continue
			}
			ls, _, lerr := b.resolve(lc)
			rs, _, rerr := b.resolve(rc)
			if lerr != nil || rerr != nil || ls == rs {
				continue
			}
			li, lok2 := idx[ls]
			ri, rok2 := idx[rs]
			if lok2 && rok2 {
				edges = append(edges, joinorder.Edge{
					A: li, B: ri,
					DistA: b.distinctEst(ls, lc.Name, baseRows[ls]),
					DistB: b.distinctEst(rs, rc.Name, baseRows[rs]),
				})
			}
		}
	}
	greedy := joinorder.Greedy(rels, edges)
	if greedy == nil {
		return fromOrder
	}
	out := make([]int, len(greedy))
	for k, g := range greedy {
		out[k] = vis[g]
	}
	return out
}
