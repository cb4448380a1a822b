// Package simnet is the shared-memory network simulator underneath the
// P-Grid overlay.
//
// The paper evaluates its operators "using a simplified simulation ...
// written in Java [that] works on shared memory", measuring the number of
// messages and the transferred data volume. This package reproduces that
// substrate: peers are in-process objects, and every logical network message
// is routed through a Fabric's Send, which performs the accounting (global
// collector plus an optional per-query tally) and applies failure injection.
//
// *Network is the paper's simulator: delivery is a direct function call on
// the calling goroutine and logically parallel query branches execute
// serially (Fanout chains them), so simulated latency accumulates along the
// whole execution. Critical-path latency comes from pgrid's actor executor,
// which runs the operators on the asyncnet discrete-event runtime.
//
// Virtual time is pure arithmetic threaded through the call structure:
// SendTimed maps a departure time to an arrival time using the configured
// latency model, and Fanout chains sibling branches.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// NodeID identifies a simulated peer. IDs are dense, starting at 0.
type NodeID int

// VTime is a point in simulated time, in microseconds. It is an int64 so the
// metrics package can fold it without importing simnet.
type VTime int64

// VTimeOf converts a wall-clock duration to virtual time.
func VTimeOf(d time.Duration) VTime { return VTime(d / time.Microsecond) }

// Duration converts virtual time back to a duration.
func (v VTime) Duration() time.Duration { return time.Duration(v) * time.Microsecond }

// String renders virtual time in milliseconds.
func (v VTime) String() string { return fmt.Sprintf("%.2fms", float64(v)/1000) }

// Splitmix64 is the SplitMix64 finalizer: the shared stateless hash behind
// randomized-but-deterministic choices (routing-reference selection in pgrid,
// per-link latency draws in asyncnet). Keeping one copy keeps routing and
// latency determinism in sync.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Message is the unit of network traffic. Size must report the serialized
// payload size in bytes (the paper's "data volume"); Kind labels the message
// for per-kind accounting.
type Message interface {
	Size() int
	Kind() string
}

// ErrNodeDown is returned by Send when the destination is marked failed.
var ErrNodeDown = errors.New("simnet: destination node is down")

// ErrUnknownNode is returned by Send for an unregistered destination.
var ErrUnknownNode = errors.New("simnet: unknown node")

// TraceEvent describes one delivered (or refused) message; tests and the
// vqlsh tool can subscribe with SetTracer. Depart and Arrive carry the
// message's virtual departure and arrival times (equal on refusals, and both
// zero on the untimed Send path).
type TraceEvent struct {
	From, To NodeID
	Msg      Message
	Err      error
	Depart   VTime
	Arrive   VTime
}

// LatencyFunc models the propagation delay of one message. It must be safe
// for concurrent use and deterministic in its arguments so direct and actor
// runs of the same workload observe identical per-message delays
// (asyncnet.LatencyModel provides seeded implementations).
type LatencyFunc func(from, to NodeID, size int) VTime

// Fabric is the message-sending surface the overlay is written against.
// *Network is its one production implementation; the interface remains as
// the seam through which a test installs a fake fabric (for instance one
// whose Fanout overlaps branches, as a critical-path reference).
type Fabric interface {
	// Size reports the number of registered nodes.
	Size() int
	// Grow raises the node count (used when peers join after construction).
	Grow(total int)
	// IsDown reports the failure status of a node.
	IsDown(id NodeID) bool
	// SetDown marks a node failed or healthy.
	SetDown(id NodeID, down bool)
	// Collector exposes the global accounting.
	Collector() *metrics.Collector
	// Latency returns the installed propagation-delay model (nil when
	// unset). Latency-aware reference selection reads it to rank candidate
	// links without sending.
	Latency() LatencyFunc
	// Send accounts for one message from -> to without timing.
	Send(t *metrics.Tally, from, to NodeID, m Message) error
	// SendTimed accounts for one message departing at the given virtual
	// time and returns its arrival time at the destination.
	SendTimed(t *metrics.Tally, from, to NodeID, m Message, depart VTime) (VTime, error)
	// Fanout executes branches logically starting at start and returns the
	// completion time of the whole group. The serial fabric runs branch i+1
	// only after branch i completes (its start is the predecessor's end).
	// Each branch must return its own completion time (>= its start).
	Fanout(start VTime, branches int, run func(i int, start VTime) VTime) VTime
}

// Network is the synchronous message fabric. It owns the global metrics
// collector and the failure set. It is safe for concurrent use.
type Network struct {
	mu      sync.RWMutex
	nodes   int
	down    map[NodeID]bool
	tracer  func(TraceEvent)
	latency LatencyFunc
	faults  *FaultPlan

	// Per-link message sequence numbers for the loss draws. A separate
	// mutex so SendTimed's read path keeps taking mu.RLock only.
	faultMu sync.Mutex
	linkSeq map[uint64]uint64
	drops   int64 // atomic

	collector *metrics.Collector
}

// Network implements Fabric.
var _ Fabric = (*Network)(nil)

// New returns a network expecting the given number of nodes (IDs 0..n-1).
func New(n int) *Network {
	return &Network{
		nodes:     n,
		down:      make(map[NodeID]bool),
		collector: metrics.NewCollector(),
	}
}

// Size reports the number of registered nodes.
func (n *Network) Size() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.nodes
}

// Grow raises the node count (used when peers join after construction).
func (n *Network) Grow(total int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if total > n.nodes {
		n.nodes = total
	}
}

// Collector exposes the global accounting.
func (n *Network) Collector() *metrics.Collector { return n.collector }

// SetTracer installs a callback invoked for every Send. Pass nil to remove.
func (n *Network) SetTracer(fn func(TraceEvent)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = fn
}

// SetLatency installs the propagation-delay model used by SendTimed. Pass
// nil for the paper's cost model, in which messages are instantaneous and
// only counted.
func (n *Network) SetLatency(fn LatencyFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = fn
}

// Latency returns the installed propagation-delay model (nil when unset).
func (n *Network) Latency() LatencyFunc {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.latency
}

// SetDown marks a node failed (true) or healthy (false). Sends to a failed
// node return ErrNodeDown without being counted as delivered; the overlay is
// expected to retry via replicas, which the paper attributes to P-Grid's
// "redundant routing table entries and replication".
func (n *Network) SetDown(id NodeID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// IsDown reports the failure status of a node.
func (n *Network) IsDown(id NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.down[id]
}

// DownCount reports how many nodes are currently failed.
func (n *Network) DownCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.down)
}

// Send accounts for one message from -> to. If tally is non-nil the message
// is also added to the per-query tally. Local work (from == to) is free, as
// in the paper's cost model: only overlay messages count.
func (n *Network) Send(t *metrics.Tally, from, to NodeID, m Message) error {
	_, err := n.SendTimed(t, from, to, m, 0)
	return err
}

// SendTimed accounts for one message departing at the given virtual time and
// returns its arrival time: depart plus the modelled propagation delay (zero
// without a latency model, and for local work).
func (n *Network) SendTimed(t *metrics.Tally, from, to NodeID, m Message, depart VTime) (VTime, error) {
	if from == to {
		return depart, nil
	}
	n.mu.RLock()
	nodes := n.nodes
	downTo := n.down[to]
	tracer := n.tracer
	latency := n.latency
	faults := n.faults
	n.mu.RUnlock()

	var err error
	switch {
	case to < 0 || int(to) >= nodes:
		err = fmt.Errorf("%w: %d", ErrUnknownNode, to)
	case downTo:
		err = ErrNodeDown
	}
	if err != nil {
		if tracer != nil {
			tracer(TraceEvent{From: from, To: to, Msg: m, Err: err, Depart: depart, Arrive: depart})
		}
		return depart, err
	}
	if faults != nil && n.dropped(faults, from, to, depart) {
		// Lost in transit: the message departed, so it still counts toward
		// messages and bytes (retransmissions then show up as real
		// overhead); only delivery fails.
		size := m.Size()
		n.collector.Record(m.Kind(), size)
		if t != nil {
			t.Add(size)
		}
		atomic.AddInt64(&n.drops, 1)
		if tracer != nil {
			tracer(TraceEvent{From: from, To: to, Msg: m, Err: ErrLinkLoss, Depart: depart, Arrive: depart})
		}
		return depart, ErrLinkLoss
	}
	size := m.Size()
	n.collector.Record(m.Kind(), size)
	if t != nil {
		t.Add(size)
	}
	arrive := depart
	if latency != nil {
		arrive += latency(from, to, size)
	}
	if tracer != nil {
		tracer(TraceEvent{From: from, To: to, Msg: m, Depart: depart, Arrive: arrive})
	}
	return arrive, nil
}

// Fanout runs the branches serially, chaining their virtual times: branch
// i+1 departs when branch i has completed, reproducing the single-threaded
// execution of the paper's shared-memory simulator.
func (n *Network) Fanout(start VTime, branches int, run func(i int, start VTime) VTime) VTime {
	cur := start
	for i := 0; i < branches; i++ {
		if end := run(i, cur); end > cur {
			cur = end
		}
	}
	return cur
}
