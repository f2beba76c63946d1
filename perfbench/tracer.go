package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Parent is the index of the enclosing span, -1 at the
// top level.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so the untraced run passes nil and pays only a nil check.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // indices of spans not yet ended, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, StartNS: time.Since(t.origin).Nanoseconds(),
		Parent: parent, Workload: t.workload,
	})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndNS = time.Since(t.origin).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// mark returns the current span count; a pair of marks delimits the spans
// of one repetition.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// seconds sums the durations of the spans named name between two marks.
func (t *tracer) seconds(name string, from, to int) float64 {
	var ns int64
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// durations lists, in order, the durations in seconds of the spans named
// name between two marks.
func (t *tracer) durations(name string, from, to int) []float64 {
	var out []float64
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
