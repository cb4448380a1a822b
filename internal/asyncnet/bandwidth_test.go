package asyncnet

import (
	"testing"

	"repro/internal/simnet"
)

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		spec string
		want int64
		err  bool
	}{
		{"none", 0, false},
		{"", 0, false},
		{"0", 0, false},
		{"65536", 65536, false},
		{"512KiB/s", 512 << 10, false},
		{"1MiB/s", 1 << 20, false},
		{"2GiB/s", 2 << 30, false},
		{"10MB/s", 10_000_000, false},
		{"1.5MB/s", 1_500_000, false},
		{"64KB/s", 64_000, false},
		{"512B/s", 512, false},
		{"fast", 0, true},
		{"-3MiB/s", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.spec)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseBandwidth(%q) = %d, %v; want %d, err=%v", c.spec, got, err, c.want, c.err)
		}
	}
}

func TestBandwidthSample(t *testing.T) {
	// 1 MiB/s: a 1 MiB message takes one virtual second on the wire.
	bw := Bandwidth{Base: Fixed{D: 1000}, BytesPerSec: 1 << 20}
	if d := bw.Sample(1, 2, 1<<20); d != 1000+1_000_000 {
		t.Errorf("1MiB at 1MiB/s = %d µs, want base 1000 + 1000000", d)
	}
	// Transmission time rounds up: 1 byte is 1 µs, never free.
	if d := bw.Sample(1, 2, 1); d != 1001 {
		t.Errorf("1B at 1MiB/s = %d µs, want 1001", d)
	}
	// Zero-size messages and nil base cost only the other term.
	if d := bw.Sample(1, 2, 0); d != 1000 {
		t.Errorf("0B = %d µs, want base only", d)
	}
	if d := (Bandwidth{BytesPerSec: 1 << 20}).Sample(1, 2, 2<<20); d != 2_000_000 {
		t.Errorf("nil base = %d µs, want tx only", d)
	}
}

type sizedMsg int

func (m sizedMsg) Kind() string { return "sized" }
func (m sizedMsg) Size() int    { return int(m) }

// TestServiceRateScalesWithSize pins the runtime's per-byte service term:
// with a rate set, a big message occupies its actor proportionally longer,
// delaying a message queued behind it.
func TestServiceRateScalesWithSize(t *testing.T) {
	finish := func(rate int64) simnet.VTime {
		rt := NewRuntime()
		rt.SetServiceRate(rate)
		var last simnet.VTime
		rt.Register(1, 100, func(rt *Runtime, ev Event) { last = rt.Now() })
		rt.Post(0, 1, sizedMsg(1<<20), 0) // 1 MiB: 1s of tx at 1MiB/s
		rt.Post(0, 1, sizedMsg(0), 0)     // queued behind it
		rt.Drain(nil)
		return last
	}
	base := finish(0)
	limited := finish(1 << 20)
	if limited <= base {
		t.Fatalf("service rate did not slow processing: base %d, limited %d", base, limited)
	}
	if want := base + 1_000_000; limited != want {
		t.Errorf("limited finish = %d, want %d (+1s tx for the 1MiB message)", limited, want)
	}
	// Determinism: same schedule, same virtual finish time.
	if again := finish(1 << 20); again != limited {
		t.Errorf("re-run finished at %d, first run %d", again, limited)
	}
}
