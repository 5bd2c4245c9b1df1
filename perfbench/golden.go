package main

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"

	"vectorh/internal/baseline"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

// goldenSet holds the expected answer of every TPC-H query for one
// generated database, computed by the independent tuple-at-a-time engine in
// internal/baseline from the hand-built plans of tpch.BuildQuery: a second
// engine and a second formulation of each query, so an answer the vectorized
// engine gets wrong through SQL cannot be matched by the same mistake.
type goldenSet struct {
	Fingerprint uint64
	Answers     map[int][][]any
}

// loadGolden returns the golden answers for d, reading them from dir when a
// file for the same scale factor, seed and data fingerprint exists and
// computing (and storing) them otherwise. At SF 0.1 the baseline needs about
// half a minute, so the cache makes every run after the first cheap.
func loadGolden(dir string, d *tpch.Data, seed int64) (map[int][][]any, error) {
	fp := fingerprint(d)
	path := filepath.Join(dir, fmt.Sprintf("golden-sf%g-seed%d-%016x.gob", d.SF, seed, fp))
	if f, err := os.Open(path); err == nil {
		var g goldenSet
		derr := gob.NewDecoder(f).Decode(&g)
		f.Close()
		if derr == nil && g.Fingerprint == fp && len(g.Answers) == tpch.NumQueries {
			return g.Answers, nil
		}
	}
	answers, err := computeGolden(d)
	if err != nil {
		return nil, err
	}
	if err := storeGolden(path, goldenSet{Fingerprint: fp, Answers: answers}); err != nil {
		return nil, err
	}
	return answers, nil
}

func computeGolden(d *tpch.Data) (map[int][][]any, error) {
	base := baseline.New(baseline.Hive)
	if err := tpch.LoadIntoBaseline(base, d); err != nil {
		return nil, fmt.Errorf("golden: load baseline: %w", err)
	}
	out := make(map[int][][]any, tpch.NumQueries)
	for q := 1; q <= tpch.NumQueries; q++ {
		p, err := tpch.BuildQuery(q, base)
		if err != nil {
			return nil, fmt.Errorf("golden: build Q%02d: %w", q, err)
		}
		rows, err := base.Query(p)
		if err != nil {
			return nil, fmt.Errorf("golden: baseline Q%02d: %w", q, err)
		}
		out[q] = rows
	}
	return out, nil
}

func storeGolden(path string, g goldenSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(g); err != nil {
		f.Close()
		return fmt.Errorf("golden: encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// fingerprint hashes every value of every generated table, so a change to
// the generator invalidates cached golden answers instead of failing every
// check.
func fingerprint(d *tpch.Data) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	names := make([]string, 0, len(d.Tables))
	for n := range d.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		b := d.Tables[n].Compact()
		for _, v := range b.Vecs {
			put(uint64(v.Kind()))
			switch v.Kind() {
			case vector.Int64:
				for _, x := range v.Int64s() {
					put(uint64(x))
				}
			case vector.Int32:
				for _, x := range v.Int32s() {
					put(uint64(x))
				}
			case vector.Float64:
				for _, x := range v.Float64s() {
					put(math.Float64bits(x))
				}
			case vector.String:
				for _, x := range v.Strings() {
					put(uint64(len(x)))
					h.Write([]byte(x))
				}
			case vector.Bool:
				for _, x := range v.Bools() {
					put(uint64(boolInt(x)))
				}
			}
		}
	}
	return h.Sum64()
}
