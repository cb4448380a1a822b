package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTallyAdd(t *testing.T) {
	var ta Tally
	ta.Add(10)
	ta.Add(20)
	if ta.Messages != 2 || ta.Bytes != 30 {
		t.Errorf("tally = %+v", ta)
	}
}

func TestTallyAddTallyAndSub(t *testing.T) {
	a := Tally{Messages: 5, Bytes: 100}
	b := Tally{Messages: 2, Bytes: 30}
	a.AddTally(b)
	if a.Messages != 7 || a.Bytes != 130 {
		t.Errorf("AddTally = %+v", a)
	}
	d := a.Sub(b)
	if d.Messages != 5 || d.Bytes != 100 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestTallyString(t *testing.T) {
	s := Tally{Messages: 3, Bytes: 42}.String()
	if !strings.Contains(s, "3") || !strings.Contains(s, "42") {
		t.Errorf("String = %q", s)
	}
}

func TestCollectorRecordAndTotals(t *testing.T) {
	c := NewCollector()
	c.Record("lookup", 10)
	c.Record("lookup", 15)
	c.Record("result", 100)
	total := c.Total()
	if total.Messages != 3 || total.Bytes != 125 {
		t.Errorf("total = %+v", total)
	}
	byKind := c.ByKind()
	if byKind["lookup"].Messages != 2 || byKind["lookup"].Bytes != 25 {
		t.Errorf("lookup = %+v", byKind["lookup"])
	}
	if byKind["result"].Messages != 1 {
		t.Errorf("result = %+v", byKind["result"])
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	c.Record("x", 1)
	c.Reset()
	if c.Total().Messages != 0 || len(c.ByKind()) != 0 {
		t.Error("Reset did not clear collector")
	}
}

func TestCollectorByKindIsSnapshot(t *testing.T) {
	c := NewCollector()
	c.Record("x", 1)
	snap := c.ByKind()
	c.Record("x", 1)
	if snap["x"].Messages != 1 {
		t.Error("ByKind returned a live map")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Record("k", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Total().Messages; got != 8000 {
		t.Errorf("concurrent total = %d, want 8000", got)
	}
}

func TestTallyObservePathMaxFolds(t *testing.T) {
	var ta Tally
	ta.ObservePath(3, 500)
	ta.ObservePath(7, 200)
	ta.ObservePath(2, 900)
	if ta.Hops != 7 || ta.Latency != 900 {
		t.Errorf("tally = %+v, want hops=7 latency=900", ta)
	}
	if ta.PathEnd() != 900 {
		t.Errorf("PathEnd = %d", ta.PathEnd())
	}
	// Nil tallies are inert so unaccounted queries cost nothing.
	var nilT *Tally
	nilT.ObservePath(1, 1)
	if nilT.PathEnd() != 0 {
		t.Error("nil tally not inert")
	}
}

func TestTallyConcurrentObserve(t *testing.T) {
	var ta Tally
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ta.Add(1)
				ta.ObservePath(int64(w), int64(i))
			}
		}(w)
	}
	wg.Wait()
	s := ta.Snapshot()
	if s.Messages != 8000 || s.Bytes != 8000 || s.Hops != 7 || s.Latency != 999 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramQuantilesAndSummary(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40, 80})
	for _, v := range []float64{5, 15, 15, 35, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 34 {
		t.Errorf("mean = %v, want 34", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("max = %v", got)
	}
	if q := h.Quantile(0.5); q != 20 {
		t.Errorf("p50 = %v, want bucket bound 20", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Errorf("p100 = %v, want observed max", q)
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("Reset did not clear histogram")
	}
}

func TestCollectorObserveQuery(t *testing.T) {
	c := NewCollector()
	c.ObserveQuery(Tally{}) // no path: skipped
	c.ObserveQuery(Tally{Hops: 4, Latency: 50_000})
	c.ObserveQuery(Tally{Hops: 6, Latency: 250_000})
	if c.HopsHist().Count() != 2 || c.LatencyHist().Count() != 2 {
		t.Fatalf("histogram counts = %d/%d", c.HopsHist().Count(), c.LatencyHist().Count())
	}
	r := c.QueryReport()
	if !strings.Contains(r, "hops") || !strings.Contains(r, "latency") {
		t.Errorf("QueryReport = %q", r)
	}
	c.Reset()
	if c.HopsHist().Count() != 0 {
		t.Error("Reset did not clear query histograms")
	}
}

func TestTallyQueueAccounting(t *testing.T) {
	var tally Tally
	tally.AddQueue(0)  // zero waits are free
	tally.AddQueue(-5) // defensive: never decrement
	tally.AddQueue(1200)
	tally.AddQueue(800)
	if got := tally.Snapshot().Queue; got != 2000 {
		t.Fatalf("Queue = %d, want 2000", got)
	}
	var nilTally *Tally
	nilTally.AddQueue(100) // nil-safe like ObservePath

	var sum Tally
	sum.AddTally(tally.Snapshot())
	sum.AddTally(Tally{Queue: 500})
	if sum.Queue != 2500 {
		t.Fatalf("AddTally queue = %d, want summed 2500", sum.Queue)
	}
	if d := sum.Sub(tally.Snapshot()); d.Queue != 500 {
		t.Fatalf("Sub queue = %d, want 500", d.Queue)
	}
	s := Tally{Messages: 1, Hops: 2, Latency: 3000, Queue: 1500}.String()
	if !strings.Contains(s, "queued") {
		t.Fatalf("String() = %q, want queueing rendered", s)
	}
	if s := (Tally{Messages: 1}).String(); strings.Contains(s, "queued") {
		t.Fatalf("String() = %q renders zero queueing", s)
	}
}

func TestCollectorQueueHistogram(t *testing.T) {
	c := NewCollector()
	c.ObserveQuery(Tally{Hops: 3, Latency: 10_000, Queue: 4_000})
	c.ObserveQuery(Tally{Hops: 5, Latency: 20_000, Queue: 0})
	if c.QueueHist().Count() != 2 {
		t.Fatalf("queue observations = %d, want 2", c.QueueHist().Count())
	}
	if r := c.QueryReport(); !strings.Contains(r, "queued") {
		t.Errorf("QueryReport without queue line: %q", r)
	}
	c.Reset()
	if c.QueueHist().Count() != 0 {
		t.Error("Reset did not clear queue histogram")
	}
	// A run with no queueing (the chained executor) hides the line.
	c.ObserveQuery(Tally{Hops: 3, Latency: 10_000})
	if r := c.QueryReport(); strings.Contains(r, "queued") {
		t.Errorf("QueryReport renders queue line without queueing: %q", r)
	}
}

// --- field-coverage round trips -------------------------------------------
//
// Tally grows a field roughly every other PR (Hops and Latency in PR 1,
// Queue in PR 3); each of Snapshot, AddTally, Sub and String must cover
// every term, and forgetting one is silent. These tests enumerate the
// struct's fields by reflection, so adding a field without threading it
// through every operation fails here instead of quietly dropping a metric.

// tallyFields returns the names of Tally's exported int64 counter fields.
func tallyFields(t *testing.T) []string {
	t.Helper()
	typ := reflect.TypeOf(Tally{})
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Tally field %s is not an exported int64; extend the round-trip tests for it", f.Name)
		}
		out = append(out, f.Name)
	}
	if len(out) == 0 {
		t.Fatal("Tally has no fields")
	}
	return out
}

// distinctTally builds a tally whose every field holds a distinct nonzero
// value (3, 5, 7, ... by field order).
func distinctTally(t *testing.T) Tally {
	t.Helper()
	var ta Tally
	v := reflect.ValueOf(&ta).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(2*i + 3))
	}
	return ta
}

func TestTallySnapshotCoversEveryField(t *testing.T) {
	ta := distinctTally(t)
	snap := ta.Snapshot()
	got, want := reflect.ValueOf(snap), reflect.ValueOf(ta)
	for i, name := range tallyFields(t) {
		if got.Field(i).Int() != want.Field(i).Int() {
			t.Errorf("Snapshot drops field %s: got %d, want %d", name, got.Field(i).Int(), want.Field(i).Int())
		}
	}
}

func TestTallySubCoversEveryField(t *testing.T) {
	ta := distinctTally(t)
	if diff := ta.Sub(Tally{}); diff != ta {
		t.Errorf("t.Sub(zero) = %+v, want %+v (a field is not subtracted)", diff, ta)
	}
	if diff := ta.Sub(ta); diff != (Tally{}) {
		t.Errorf("t.Sub(t) = %+v, want zero (a field is not subtracted)", diff)
	}
}

func TestTallyMergeCoversEveryField(t *testing.T) {
	ta := distinctTally(t)
	var into Tally
	into.AddTally(ta)
	// Merging into zero must reproduce every field: summed fields add onto
	// zero, max-folded fields raise from zero — either way the value carries.
	if got := into.Snapshot(); got != ta {
		t.Errorf("zero.AddTally(t) = %+v, want %+v (a field is not merged)", got, ta)
	}
}

func TestTallyStringCoversEveryField(t *testing.T) {
	zero := Tally{}.String()
	for i, name := range tallyFields(t) {
		var ta Tally
		reflect.ValueOf(&ta).Elem().Field(i).SetInt(42)
		if ta.String() == zero {
			t.Errorf("String ignores field %s: rendering equals the zero tally (%q)", name, zero)
		}
	}
}
