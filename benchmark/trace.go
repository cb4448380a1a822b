package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the harness made into a layer: what was called, when, on
// behalf of which op, and the span that caused it (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int
	op         int
}

// tracer keeps spans in memory; they are written out when the run ends. All
// methods are no-ops on a nil tracer, so the untraced rounds pay one nil
// check per op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, the parent of the spans it causes.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// selfTimes returns every span's duration minus the part of it its child
// spans cover. Children of one parent never overlap here — a client issues
// its calls one after another — so the covered part is the children's sum.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// summary prints, per span name, how many spans there were and their summed
// duration and self time: where the traced run's time went, layer by layer.
func (t *tracer) summary(out io.Writer) {
	type sums struct {
		n           int
		total, self time.Duration
	}
	byName := map[string]*sums{}
	var names []string
	selfs := selfTimes(t.spans)
	for i, s := range t.spans {
		b := byName[s.name]
		if b == nil {
			b = &sums{}
			byName[s.name] = b
			names = append(names, s.name)
		}
		b.n++
		b.total += s.end - s.start
		b.self += selfs[i]
	}
	sort.Strings(names)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, name := range names {
		b := byName[name]
		fmt.Fprintf(out, "span %-20s n %5d  total %10.2f ms  self %10.2f ms\n", name, b.n, ms(b.total), ms(b.self))
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Each op is a row.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.op, Args: map[string]int{"id": i, "parent": s.parent, "op": s.op}}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
