package asyncnet

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simnet"
)

// testMsg is a trivial payload for runtime tests.
type testMsg struct {
	id   int
	size int
}

func (m testMsg) Size() int    { return m.size }
func (m testMsg) Kind() string { return "test" }

// runPingPong wires a deterministic two-actor exchange: actor 0 forwards
// every received message to actor 1 with a hash-derived delay and vice
// versa, for a bounded number of rounds. It returns the deliveries in
// processing order.
func runPingPong(seed int64) []string {
	rt := NewRuntime()
	var log []string
	handler := func(rt *Runtime, ev Event) {
		m := ev.Msg.(testMsg)
		log = append(log, fmt.Sprintf("%d->%d@%d:%d", ev.From, ev.To, ev.At, m.id))
		if m.id >= 20 {
			return
		}
		delay := simnet.VTime(simnet.Splitmix64(uint64(seed)^uint64(m.id))%1000 + 1)
		_ = rt.Post(ev.To, 1-ev.To, testMsg{id: m.id + 1, size: 8}, delay)
	}
	rt.Register(0, 5, handler)
	rt.Register(1, 5, handler)
	// Three interleaved seed messages at identical times exercise FIFO
	// tie-breaking.
	_ = rt.Post(0, 1, testMsg{id: 0, size: 8}, 10)
	_ = rt.Post(1, 0, testMsg{id: 0, size: 8}, 10)
	_ = rt.Post(0, 1, testMsg{id: 10, size: 8}, 10)
	rt.Run()
	return log
}

// TestRuntimeDeterministicOrder pins the core property of the discrete-event
// runtime: under a fixed seed, delivery order and virtual timestamps are
// identical across runs.
func TestRuntimeDeterministicOrder(t *testing.T) {
	a := runPingPong(42)
	b := runPingPong(42)
	if len(a) == 0 {
		t.Fatal("no deliveries traced")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("two runs diverged:\n%v\n%v", a, b)
	}
	c := runPingPong(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules (delays ignored?)")
	}
}

// TestRuntimeVirtualClockAdvances checks the clock follows event times, not
// wall time.
func TestRuntimeVirtualClockAdvances(t *testing.T) {
	rt := NewRuntime()
	var got []simnet.VTime
	rt.Register(7, 0, func(rt *Runtime, ev Event) {
		got = append(got, ev.At)
	})
	for _, d := range []simnet.VTime{500, 100, 300} {
		if err := rt.Post(7, 7, testMsg{}, d); err != nil {
			t.Fatal(err)
		}
	}
	rt.Run()
	want := []simnet.VTime{100, 300, 500}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivery times %v, want %v", got, want)
	}
	if rt.Now() != 500 {
		t.Fatalf("clock at %d, want 500", rt.Now())
	}
}

// TestRuntimePostToUnregisteredActorFails: Post refuses a destination that
// was never registered.
func TestRuntimePostToUnregisteredActorFails(t *testing.T) {
	rt := NewRuntime()
	rt.Register(1, 0, func(rt *Runtime, ev Event) {})
	if err := rt.Post(0, 99, testMsg{}, 0); !errors.Is(err, ErrNoActor) {
		t.Fatalf("Post to unregistered actor: err = %v, want ErrNoActor", err)
	}
}

// TestLatencyModelsDeterministicAndBounded pins the seeded distributions:
// identical arguments yield identical samples, samples respect bounds, and
// direct/actor comparability holds because the draw is stateless.
func TestLatencyModelsDeterministicAndBounded(t *testing.T) {
	u := Uniform{Min: 1000, Max: 2000, Seed: 7}
	seen := map[simnet.VTime]bool{}
	for from := simnet.NodeID(0); from < 50; from++ {
		for to := simnet.NodeID(0); to < 10; to++ {
			a := u.Sample(from, to, 100)
			b := u.Sample(from, to, 100)
			if a != b {
				t.Fatalf("uniform sample not deterministic for (%d,%d)", from, to)
			}
			if a < 1000 || a >= 2000 {
				t.Fatalf("uniform sample %d out of [1000,2000)", a)
			}
			seen[a] = true
		}
	}
	if len(seen) < 50 {
		t.Fatalf("only %d distinct delays over 500 links; distribution degenerate", len(seen))
	}
	ln := LogNormal{Median: 20000, Sigma: 0.5, Seed: 3}
	if a, b := ln.Sample(1, 2, 0), ln.Sample(1, 2, 0); a != b {
		t.Fatal("lognormal sample not deterministic")
	}
	if f := (Fixed{D: 500}); f.Sample(3, 4, 0) != 500 {
		t.Fatal("fixed sample wrong")
	}
}

// TestParseLatency covers the flag syntax.
func TestParseLatency(t *testing.T) {
	if m, err := ParseLatency("none", 1); err != nil || m != nil {
		t.Fatalf("none: %v %v", m, err)
	}
	m, err := ParseLatency("fixed:25ms", 1)
	if err != nil || m.Sample(0, 1, 0) != 25000 {
		t.Fatalf("fixed: %v %v", m, err)
	}
	if _, err := ParseLatency("uniform:10ms-100ms", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseLatency("lognormal:20ms,0.5", 1); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"uniform:10ms", "uniform:100ms-10ms", "fixed:xyz", "zipf:3"} {
		if _, err := ParseLatency(bad, 1); err == nil {
			t.Errorf("ParseLatency(%q) accepted", bad)
		}
	}
}

// TestParseLatencyErrors sweeps the malformed-spec space: every spec must be
// rejected with a non-nil error instead of panicking or yielding a model.
func TestParseLatencyErrors(t *testing.T) {
	bad := []string{
		"fixed:",              // empty duration
		"fixed:12",            // missing unit
		"fixed:-5ms!",         // trailing garbage
		"uniform:",            // no interval
		"uniform:10ms-",       // empty upper bound
		"uniform:-10ms",       // no separator match (cut on first dash)
		"uniform:abc-def",     // non-durations
		"lognormal:",          // no args
		"lognormal:20ms",      // missing sigma
		"lognormal:20ms,",     // empty sigma
		"lognormal:20ms,abc",  // non-numeric sigma
		"lognormal:20ms,-0.5", // negative sigma
		"lognormal:xyz,0.5",   // bad median
		"pareto:1ms",          // unknown family
		"fixed",               // family without argument
	}
	for _, spec := range bad {
		if m, err := ParseLatency(spec, 1); err == nil {
			t.Errorf("ParseLatency(%q) = %v, want error", spec, m)
		}
	}
	// Whitespace and the empty spec mean "no model", not an error.
	for _, spec := range []string{"", "  ", "none", " none "} {
		if m, err := ParseLatency(spec, 1); err != nil || m != nil {
			t.Errorf("ParseLatency(%q) = %v, %v, want nil, nil", spec, m, err)
		}
	}
}

// TestUniformSamplingBounds pins the degenerate and boundary behaviour of
// the uniform model: an empty or inverted interval collapses to Min, and
// samples never leave [Min, Max).
func TestUniformSamplingBounds(t *testing.T) {
	for _, u := range []Uniform{
		{Min: 500, Max: 500, Seed: 3}, // empty interval
		{Min: 900, Max: 100, Seed: 3}, // inverted interval
	} {
		if d := u.Sample(1, 2, 0); d != u.Min {
			t.Errorf("degenerate %+v sampled %d, want Min", u, d)
		}
	}
	u := Uniform{Min: 0, Max: 1, Seed: 9}
	for from := simnet.NodeID(0); from < 100; from++ {
		if d := u.Sample(from, from+1, 0); d != 0 {
			t.Errorf("1µs-wide uniform sampled %d, want 0 (floor of [0,1))", d)
		}
	}
}

// TestLogNormalSamplingBounds pins the heavy-tailed model: samples are never
// negative, sigma=0 degenerates to the median exactly, and the per-link
// draws straddle the median (it is the distribution's midpoint).
func TestLogNormalSamplingBounds(t *testing.T) {
	deg := LogNormal{Median: 20000, Sigma: 0, Seed: 4}
	for from := simnet.NodeID(0); from < 20; from++ {
		if d := deg.Sample(from, from+1, 0); d != 20000 {
			t.Fatalf("sigma=0 sample = %d, want exactly the median", d)
		}
	}
	ln := LogNormal{Median: 20000, Sigma: 1.5, Seed: 4}
	below, above := 0, 0
	for from := simnet.NodeID(0); from < 200; from++ {
		for to := simnet.NodeID(0); to < 5; to++ {
			d := ln.Sample(from, to, 0)
			if d < 0 {
				t.Fatalf("negative lognormal sample %d", d)
			}
			if d < 20000 {
				below++
			} else {
				above++
			}
		}
	}
	// 1000 draws: both sides of the median must be populated heavily; a
	// one-sided distribution would mean the Box-Muller transform is broken.
	if below < 300 || above < 300 {
		t.Errorf("samples below/above median = %d/%d; distribution skewed off its median", below, above)
	}
}

// TestSendTimedAppliesLatency checks the fabric surface end to end: a timed
// send advances virtual time by the model's sample and records the message.
func TestSendTimedAppliesLatency(t *testing.T) {
	net := simnet.New(4)
	net.SetLatency(Func(Fixed{D: 700}))
	var tally metrics.Tally
	arrive, err := net.SendTimed(&tally, 0, 1, testMsg{size: 40}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if arrive != 1700 {
		t.Fatalf("arrive = %d, want 1700", arrive)
	}
	if tally.Messages != 1 || tally.Bytes != 40 {
		t.Fatalf("tally = %+v", tally)
	}
	// Local work stays free and instantaneous.
	if at, _ := net.SendTimed(&tally, 2, 2, testMsg{size: 9}, 5); at != 5 || tally.Messages != 1 {
		t.Fatal("local send should be free")
	}
}
