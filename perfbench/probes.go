package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"vectorh"
	"vectorh/internal/mpi"
	"vectorh/internal/obs"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

// compilePhases are the obs.Trace phases sql.PlanCache.CompileTraced
// records on a miss.
var compilePhases = []string{"parse", "bind", "decorrelate", "joinorder"}

const compileRounds = 10

// compileProbe compiles each of the 22 queries compileRounds times on a
// fresh plan cache, so every call is a miss that parses, binds, decorrelates
// and orders joins. It returns, per metric (the whole call and each phase),
// the mean over the queries of each query's median time in microseconds.
// The warm power workloads never compile in their windows; this is where
// their sql layer is measured.
func (r *run) compileProbe(db *vectorh.DB) (map[string]float64, error) {
	samples := make(map[int]map[string][]float64)
	rng := rand.New(rand.NewSource(r.seed))
	for round := 0; round < compileRounds; round++ {
		for _, idx := range rng.Perm(tpch.NumQueries) {
			q := idx + 1
			tr := obs.NewTrace()
			pc := sql.NewPlanCache(0)
			_, end := r.rec.begin("sql.CompileTraced", r.stmtID.Add(1), 0)
			t0 := time.Now()
			_, _, _, err := pc.CompileTraced(tpch.SQLQueries[q], db.Engine, db.CatalogEpoch(), tr)
			total := time.Since(t0)
			end()
			if err != nil {
				return nil, fmt.Errorf("compile Q%02d: %w", q, err)
			}
			if samples[q] == nil {
				samples[q] = make(map[string][]float64)
			}
			s := samples[q]
			s["compile"] = append(s["compile"], float64(total)/1e3)
			got := make(map[string]float64)
			for _, p := range tr.Phases() {
				got[p.Name] = float64(p.Nanos) / 1e3
			}
			for _, name := range compilePhases {
				s[name] = append(s[name], got[name])
			}
		}
	}
	out := make(map[string]float64)
	for _, name := range append([]string{"compile"}, compilePhases...) {
		var sum float64
		for q := 1; q <= tpch.NumQueries; q++ {
			sum += median(samples[q][name])
		}
		out[name] = sum / tpch.NumQueries
	}
	return out, nil
}

// codecSample cuts a fixed sample of lineitem batches (codecBatches slices
// of vector.MaxSize rows, evenly spaced) for the exchange codec probe.
const codecBatches = 16

func codecSample(d *tpch.Data) []*vector.Batch {
	li := d.Tables["lineitem"].Compact()
	n := li.Len()
	size := min(vector.MaxSize, n)
	var out []*vector.Batch
	for i := 0; i < codecBatches; i++ {
		lo := (n - size) * i / codecBatches
		b := &vector.Batch{Vecs: make([]*vector.Vec, len(li.Vecs))}
		for c, v := range li.Vecs {
			b.Vecs[c] = vector.New(v.Kind(), size)
			b.Vecs[c].AppendRange(v, lo, lo+size) // a copy: the sample outlives the generated data
		}
		out = append(out, b)
	}
	return out
}

const codecRounds = 20

// codecProbe times mpi.EncodeBatch → mpi.DecodeBatch round trips over the
// sample and returns nanoseconds per encoded byte. Every decoded batch is
// compared with its input.
func codecProbe(sample []*vector.Batch) (float64, error) {
	var bytes int64
	var elapsed time.Duration
	for round := 0; round < codecRounds; round++ {
		for i, b := range sample {
			t0 := time.Now()
			enc := mpi.EncodeBatch(b)
			dec, err := mpi.DecodeBatch(enc)
			elapsed += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("codec: decode batch %d: %w", i, err)
			}
			bytes += int64(len(enc))
			if round == 0 {
				if err := sameBatch(dec, b); err != nil {
					return 0, fmt.Errorf("codec: batch %d: %w", i, err)
				}
			}
		}
	}
	return float64(elapsed) / float64(bytes), nil
}

func sameBatch(got, want *vector.Batch) error {
	if got.Len() != want.Len() || got.NumCols() != want.NumCols() {
		return fmt.Errorf("decoded %dx%d, want %dx%d", got.Len(), got.NumCols(), want.Len(), want.NumCols())
	}
	for r := 0; r < want.Len(); r++ {
		if g, w := got.Row(r), want.Row(r); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("row %d decoded %v, want %v", r, g, w)
		}
	}
	return nil
}
