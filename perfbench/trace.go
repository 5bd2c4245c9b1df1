package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one statement share Stmt; Parent is 0 for a statement's root.
// Start and End are nanoseconds since the recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Stmt   int64  `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced window runs the same code with no span cost
// beyond a nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it and its id.
func (r *recorder) begin(name string, stmt, parent int64) (id int64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.next++
	id = r.next
	r.mu.Unlock()
	return id, func() {
		sp := span{ID: id, Parent: parent, Stmt: stmt, Name: name, Start: start, End: time.Since(r.t0).Nanoseconds()}
		r.mu.Lock()
		r.spans = append(r.spans, sp)
		r.mu.Unlock()
	}
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers. Children
// may overlap each other (concurrent calls) or outlive the parent; each
// instant of the parent is subtracted at most once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns how many nanoseconds of [lo, hi) the intervals of cs
// cover.
func covered(lo, hi int64, cs []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// spanSummary is the per-name roll-up written with the dump and turned into
// the trace.* per-layer metrics.
type spanSummary struct {
	Count  int64 `json:"count"`
	TotNs  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := make(map[string]spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotNs += s.End - s.Start
		sum.SelfNs += self[s.ID]
		out[s.Name] = sum
	}
	return out
}

// writeDump writes the spans and their per-name summary as one JSON
// document.
func writeDump(path string, spans []span, sum map[string]spanSummary) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Spans   []span                 `json:"spans"`
		Summary map[string]spanSummary `json:"summary"`
	}{spans, sum}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace dump: %w", err)
	}
	return nil
}
