package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Times are nanoseconds since the tracer
// started; Parent is the index of the span that caused this one (-1
// for a root) and Op groups the spans of one operation (one job, one
// viewer cycle, one replay stage).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// "tracing off": begin/end are no-ops, so end-to-end runs pay nothing
// but a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id shared by the spans of one request.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerSelf is one row of the per-layer summary: how many spans carried
// the name, their total duration, and the self time — duration minus
// the part of each interval its child spans cover.
type layerSelf struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes folds the spans by name. Children of one parent recorded by
// concurrent clients may overlap, so the covered part of the parent's
// interval is the union of the child intervals, clipped to the parent.
func (t *tracer) selfTimes() []layerSelf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*layerSelf{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			ks, ke := max(t.spans[k].Start, cursor), min(t.spans[k].End, s.End)
			if ke > ks {
				covered += ke - ks
				cursor = ke
			}
		}
		row := byName[s.Name]
		if row == nil {
			row = &layerSelf{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalMs += float64(s.End-s.Start) / 1e6
		row.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	rows := make([]layerSelf, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
	return rows
}

// traceFile is the on-disk form of trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Layers   []layerSelf `json:"layers"`
	Spans    []span      `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	tf := traceFile{Workload: workload, Seed: seed, Layers: t.selfTimes()}
	t.mu.Lock()
	tf.Spans = t.spans
	t.mu.Unlock()
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
