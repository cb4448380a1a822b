package asyncnet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/simnet"
)

// runTracedPingPong runs the deterministic two-actor exchange with a
// lifecycle tracer attached and returns the JSONL export.
func runTracedPingPong(seed int64, capacity int) []byte {
	rt := NewRuntime()
	tr := NewTracer(capacity)
	rt.SetTracer(tr)
	handler := func(rt *Runtime, ev Event) {
		m := ev.Msg.(testMsg)
		if m.id >= 20 {
			return
		}
		delay := simnet.VTime(simnet.Splitmix64(uint64(seed)^uint64(m.id))%1000 + 1)
		_ = rt.Post(ev.To, 1-ev.To, testMsg{id: m.id + 1, size: 8}, delay)
	}
	rt.Register(0, 5, handler)
	rt.Register(1, 5, handler)
	_ = rt.Post(0, 1, testMsg{id: 0, size: 8}, 10)
	_ = rt.Post(1, 0, testMsg{id: 0, size: 8}, 10)
	_ = rt.Post(0, 1, testMsg{id: 10, size: 8}, 10)
	rt.Run()
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// TestTracerJSONLDeterministic pins the tracer's central promise: under a
// fixed seed two runs produce byte-identical JSONL, and a different seed
// produces a different trace.
func TestTracerJSONLDeterministic(t *testing.T) {
	a := runTracedPingPong(42, 0)
	b := runTracedPingPong(42, 0)
	if len(a) == 0 {
		t.Fatal("traced run produced no records")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed diverged:\n%s\n---\n%s", a, b)
	}
	if c := runTracedPingPong(43, 0); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTracerJSONLWellFormed checks every exported line is a standalone JSON
// object that round-trips through encoding/json, including records whose
// note needs escaping.
func TestTracerJSONLWellFormed(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(TraceRecord{At: 7, Kind: TraceSend, From: 1, To: 2, Msg: "lookup", Size: 32, Wait: 3})
	tr.Record(TraceRecord{At: 9, Kind: TraceDrop, From: 2, To: 3, Msg: `quo"te`, Note: "line\nbreak\tand \\ ctrl \x01"})
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(b.Bytes(), "\n"), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), b.String())
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"at", "kind", "from", "to", "op", "msg", "size", "wait"} {
			if _, ok := obj[key]; !ok {
				t.Fatalf("line %d missing key %q: %s", i, key, line)
			}
		}
	}
	var drop map[string]any
	if err := json.Unmarshal(lines[1], &drop); err != nil {
		t.Fatal(err)
	}
	if got := drop["note"]; got != "line\nbreak\tand \\ ctrl \x01" {
		t.Fatalf("note did not round-trip: %q", got)
	}
	if got := drop["msg"]; got != `quo"te` {
		t.Fatalf("msg did not round-trip: %q", got)
	}
}

// TestTracerRingOverwrite checks the bounded buffer keeps the newest records,
// counts overwrites, and unwraps oldest-first.
func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(TraceRecord{At: simnet.VTime(i), Kind: TraceSend})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	recs := tr.Records()
	for i, r := range recs {
		if want := simnet.VTime(6 + i); r.At != want {
			t.Fatalf("record %d at %d, want %d (not oldest-first)", i, r.At, want)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatalf("Reset left Len=%d Total=%d", tr.Len(), tr.Total())
	}
}

// TestTracerNilSafe checks a nil tracer accepts the whole API as no-ops, so
// call sites never need nil guards around accessors.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(TraceRecord{Kind: TraceSend})
	if tr.Len() != 0 || tr.Total() != 0 || tr.Overwritten() != 0 {
		t.Fatal("nil tracer reported nonzero counts")
	}
	if recs := tr.Records(); recs != nil {
		t.Fatalf("nil tracer returned records: %v", recs)
	}
	tr.Reset()
}

// TestNilTracerRecordAllocFree guards the disabled-tracer hot path: recording
// against a nil tracer must not allocate, so leaving tracing off costs the
// send path nothing.
func TestNilTracerRecordAllocFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(TraceRecord{At: 5, Kind: TraceSend, From: 1, To: 2, Op: 77, Msg: "test", Size: 8})
	})
	if allocs != 0 {
		t.Fatalf("nil tracer Record allocated %.1f per op, want 0", allocs)
	}
}

// TestWriteChromeTrace checks the Chrome export is one valid JSON document
// with paired B/E duration events.
func TestWriteChromeTrace(t *testing.T) {
	rt := NewRuntime()
	tr := NewTracer(0)
	rt.SetTracer(tr)
	rt.Register(0, 5, func(rt *Runtime, ev Event) {})
	_ = rt.Post(0, 0, testMsg{id: 1, size: 8}, 10)
	rt.Run()
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	var begins, ends int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			begins++
		case "E":
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced duration slices: %d B vs %d E", begins, ends)
	}
}

// BenchmarkStepTracer measures the runtime's per-message delivery cost with
// the tracer disabled and enabled — the disabled case is the regression guard
// for observability overhead.
func BenchmarkStepTracer(b *testing.B) {
	bench := func(b *testing.B, traced bool) {
		rt := NewRuntime()
		if traced {
			rt.SetTracer(NewTracer(0))
		}
		rt.Register(0, 1, func(rt *Runtime, ev Event) {})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Post(0, 0, testMsg{id: i, size: 8}, 1); err != nil {
				b.Fatal(err)
			}
			rt.Run()
		}
	}
	b.Run("off", func(b *testing.B) { bench(b, false) })
	b.Run("on", func(b *testing.B) { bench(b, true) })
}
