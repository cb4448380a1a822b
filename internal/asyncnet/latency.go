// Package asyncnet is the asynchronous, concurrent overlay runtime of the
// reproduction. It complements the paper's shared-memory simulator
// (internal/simnet) with the machinery real P2P deployments have and the
// paper's cost model abstracts away:
//
//   - seeded per-link latency distributions (this file), so queries have a
//     simulated end-to-end latency and hop count in addition to message and
//     byte counts;
//   - a deterministic discrete-event actor runtime (runtime.go) with
//     per-peer mailboxes and service times on a virtual clock, on which the
//     actor executor runs the operators and which drives churn/latency
//     scenarios on a virtual timeline. It never fails a message: faults
//     live on the fabric (simnet.FaultPlan, simnet.Network.SetDown).
package asyncnet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/simnet"
)

// LatencyModel draws the propagation delay of a link. Implementations must
// be deterministic functions of their arguments (plus the model's seed) and
// safe for concurrent use: a link's delay may not depend on global call
// order, so the direct and actor executions of the same workload observe
// identical per-message delays and their simulated latencies are directly
// comparable.
type LatencyModel interface {
	// Sample returns the delay of one message of the given size on the
	// from -> to link.
	Sample(from, to simnet.NodeID, size int) simnet.VTime
	// String renders the model in the flag syntax understood by
	// ParseLatency.
	String() string
}

// Func adapts the model to the simnet.LatencyFunc hook.
func Func(m LatencyModel) simnet.LatencyFunc {
	if m == nil {
		return nil
	}
	return m.Sample
}

// linkUniform derives a uniform sample in [0,1) for a directed link. stream
// decorrelates multiple draws per link (e.g. the two normals of Box-Muller).
func linkUniform(seed int64, from, to simnet.NodeID, stream uint64) float64 {
	h := simnet.Splitmix64(uint64(seed) ^ simnet.Splitmix64(uint64(from)+0x51ed<<16) ^
		simnet.Splitmix64(uint64(to)+0xc0de<<32) ^ simnet.Splitmix64(stream))
	return float64(h>>11) / float64(1<<53)
}

// Fixed is a constant-delay model: every link takes D.
type Fixed struct{ D simnet.VTime }

// Sample implements LatencyModel.
func (f Fixed) Sample(_, _ simnet.NodeID, _ int) simnet.VTime { return f.D }

// String implements LatencyModel.
func (f Fixed) String() string { return "fixed:" + f.D.Duration().String() }

// Uniform assigns each directed link a delay drawn uniformly from
// [Min, Max], fixed per link — a seeded delay matrix, as latency-aware P2P
// simulators use.
type Uniform struct {
	Min, Max simnet.VTime
	Seed     int64
}

// Sample implements LatencyModel.
func (u Uniform) Sample(from, to simnet.NodeID, _ int) simnet.VTime {
	if u.Max <= u.Min {
		return u.Min
	}
	f := linkUniform(u.Seed, from, to, 1)
	return u.Min + simnet.VTime(f*float64(u.Max-u.Min))
}

// String implements LatencyModel.
func (u Uniform) String() string {
	return fmt.Sprintf("uniform:%s-%s", u.Min.Duration(), u.Max.Duration())
}

// LogNormal assigns each directed link a log-normally distributed delay with
// the given median and shape sigma — the classic heavy-tailed model of
// wide-area round-trip times.
type LogNormal struct {
	Median simnet.VTime
	Sigma  float64
	Seed   int64
}

// Sample implements LatencyModel.
func (l LogNormal) Sample(from, to simnet.NodeID, _ int) simnet.VTime {
	u1 := linkUniform(l.Seed, from, to, 1)
	u2 := linkUniform(l.Seed, from, to, 2)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	d := float64(l.Median) * math.Exp(l.Sigma*z)
	if d < 0 {
		d = 0
	}
	return simnet.VTime(d)
}

// String implements LatencyModel.
func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal:%s,%.2f", l.Median.Duration(), l.Sigma)
}

// Bandwidth adds a size-dependent transmission term to a base propagation
// model: a message of s bytes takes s/BytesPerSec on the wire in addition to
// the base delay. Large result sets and bulk handovers stop being free the
// way the paper's pure message-count cost model treats them. The term is a
// deterministic integer function of the size, so concurrent and serial
// executions still observe identical delays.
type Bandwidth struct {
	// Base draws the propagation delay (nil = zero: bandwidth only).
	Base LatencyModel
	// BytesPerSec is the link capacity; <= 0 disables the term.
	BytesPerSec int64
}

// Sample implements LatencyModel.
func (b Bandwidth) Sample(from, to simnet.NodeID, size int) simnet.VTime {
	var d simnet.VTime
	if b.Base != nil {
		d = b.Base.Sample(from, to, size)
	}
	return d + TxTime(b.BytesPerSec, size)
}

// String implements LatencyModel.
func (b Bandwidth) String() string {
	base := "none"
	if b.Base != nil {
		base = b.Base.String()
	}
	return fmt.Sprintf("%s+bw:%s", base, FormatRate(b.BytesPerSec))
}

// TxTime is the transmission time of size bytes at bytesPerSec, rounded up
// to the next virtual-time tick (microsecond). <= 0 rates and sizes cost
// nothing.
func TxTime(bytesPerSec int64, size int) simnet.VTime {
	if bytesPerSec <= 0 || size <= 0 {
		return 0
	}
	return simnet.VTime((int64(size)*1_000_000 + bytesPerSec - 1) / bytesPerSec)
}

// FormatRate renders a bytes-per-second rate in the ParseBandwidth syntax.
func FormatRate(bytesPerSec int64) string {
	switch {
	case bytesPerSec <= 0:
		return "none"
	case bytesPerSec%(1<<20) == 0:
		return fmt.Sprintf("%dMiB/s", bytesPerSec>>20)
	case bytesPerSec%(1<<10) == 0:
		return fmt.Sprintf("%dKiB/s", bytesPerSec>>10)
	}
	return fmt.Sprintf("%dB/s", bytesPerSec)
}

// ParseBandwidth parses a link-capacity spec into bytes per second:
//
//	none            no bandwidth term (0)
//	512KiB/s        binary units: B/s, KiB/s, MiB/s, GiB/s
//	10MB/s          decimal units: KB/s, MB/s, GB/s
//	65536           plain bytes per second
func ParseBandwidth(spec string) (int64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" || spec == "0" {
		return 0, nil
	}
	num := strings.TrimSuffix(spec, "/s")
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3}, {"B", 1},
	} {
		if strings.HasSuffix(num, u.suffix) {
			num = strings.TrimSuffix(num, u.suffix)
			mult = u.mult
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("asyncnet: bad bandwidth %q (want e.g. 512KiB/s, 10MB/s, none)", spec)
	}
	return int64(v * float64(mult)), nil
}

// DefaultLatency is the model the tools use when latency is enabled without
// an explicit distribution: uniform 10–100ms per link, the spread of
// wide-area peer-to-peer deployments.
func DefaultLatency(seed int64) LatencyModel {
	return Uniform{Min: vt(10 * time.Millisecond), Max: vt(100 * time.Millisecond), Seed: seed}
}

func vt(d time.Duration) simnet.VTime { return simnet.VTimeOf(d) }

// ParseLatency parses a distribution spec:
//
//	none                       no latency model (messages are instantaneous)
//	fixed:25ms                 constant per-link delay
//	uniform:10ms-100ms         per-link delay uniform in the interval
//	lognormal:20ms,0.5         heavy-tailed with median 20ms, sigma 0.5
//
// seed drives the per-link draws of the randomized models.
func ParseLatency(spec string, seed int64) (LatencyModel, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "fixed":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return nil, fmt.Errorf("asyncnet: bad fixed latency %q: %w", arg, err)
		}
		return Fixed{D: vt(d)}, nil
	case "uniform":
		lo, hi, ok := strings.Cut(arg, "-")
		if !ok {
			return nil, fmt.Errorf("asyncnet: uniform latency needs min-max, got %q", arg)
		}
		dlo, err1 := time.ParseDuration(lo)
		dhi, err2 := time.ParseDuration(hi)
		if err1 != nil || err2 != nil || dhi < dlo {
			return nil, fmt.Errorf("asyncnet: bad uniform latency %q", arg)
		}
		return Uniform{Min: vt(dlo), Max: vt(dhi), Seed: seed}, nil
	case "lognormal":
		med, sig, ok := strings.Cut(arg, ",")
		if !ok {
			return nil, fmt.Errorf("asyncnet: lognormal latency needs median,sigma, got %q", arg)
		}
		dmed, err1 := time.ParseDuration(med)
		fsig, err2 := strconv.ParseFloat(strings.TrimSpace(sig), 64)
		if err1 != nil || err2 != nil || fsig < 0 {
			return nil, fmt.Errorf("asyncnet: bad lognormal latency %q", arg)
		}
		return LogNormal{Median: vt(dmed), Sigma: fsig, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("asyncnet: unknown latency distribution %q", kind)
	}
}
