// Package metrics implements the cost accounting used throughout the
// reproduction. The paper's evaluation (Section 6) measures exactly two
// quantities — "the number of messages and bandwidth usage, because these are
// the limiting factors for overlay networks" — so every simulated message is
// recorded here, both globally (per network) and per query (per Tally).
//
// The asynchronous runtime (internal/asyncnet) extends the cost model with
// two more per-query quantities the shared-memory simulator could not
// express: the longest forwarding chain (hops) and the simulated end-to-end
// latency of the slowest message path (virtual time, microseconds). Both are
// max-folded rather than summed: parallel branches overlap, so a query is as
// slow as its critical path, not as the sum of its messages.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Tally accumulates the cost of one query. The zero value is ready to use.
// All updates go through atomic operations so logically parallel query
// branches (the actor executor runs them on goroutines) may share one tally;
// plain field reads are safe once the query has completed (the fan-out
// joins before returning).
type Tally struct {
	// Messages and Bytes are the paper's two measures, summed over every
	// overlay message of the query.
	Messages int64
	Bytes    int64
	// Hops is the longest observed forwarding chain of any single logical
	// operation in the query (max-folded, not summed).
	Hops int64
	// Latency is the simulated completion time of the query's slowest
	// message path in microseconds of virtual time (max-folded). Sequential
	// operations sharing a tally chain naturally: each starts at the
	// previous maximum (see PathEnd).
	Latency int64
	// Queue is the total virtual time (µs) the query's messages spent
	// waiting in actor mailboxes before processing began, summed over every
	// delivery. Only the actor executor produces queueing: the chained
	// executor models links but not per-peer serialization, so it always
	// reports zero.
	Queue int64
	// Retries counts retransmissions of messages lost in transit; Failovers
	// counts sends redirected to a replica after the original target was
	// unreachable. Both stay zero on a lossless fabric.
	Retries   int64
	Failovers int64
	// Unanswered counts query branches abandoned after retries and failovers
	// were exhausted: the query completed, but with a possibly partial
	// (degraded) answer. A fault-free run always reports zero.
	Unanswered int64
}

// Add records one message of the given payload size.
func (t *Tally) Add(bytes int) {
	atomic.AddInt64(&t.Messages, 1)
	atomic.AddInt64(&t.Bytes, int64(bytes))
}

// AddRetry counts one retransmission of a lost message. Nil-safe.
func (t *Tally) AddRetry() {
	if t == nil {
		return
	}
	atomic.AddInt64(&t.Retries, 1)
}

// AddFailover counts one send redirected to a replica. Nil-safe.
func (t *Tally) AddFailover() {
	if t == nil {
		return
	}
	atomic.AddInt64(&t.Failovers, 1)
}

// AddUnanswered counts one abandoned (degraded) query branch. Nil-safe.
func (t *Tally) AddUnanswered() {
	if t == nil {
		return
	}
	atomic.AddInt64(&t.Unanswered, 1)
}

// UnansweredCount reports the abandoned branches so far. Nil-safe.
func (t *Tally) UnansweredCount() int64 {
	if t == nil {
		return 0
	}
	return atomic.LoadInt64(&t.Unanswered)
}

// ObservePath folds one completed message path into the tally: a chain of
// hops forwards ending at virtual time endUS. Nil tallies are ignored so
// unaccounted queries cost nothing to instrument.
func (t *Tally) ObservePath(hops, endUS int64) {
	if t == nil {
		return
	}
	atomicMax(&t.Hops, hops)
	atomicMax(&t.Latency, endUS)
}

// AddQueue accumulates mailbox waiting time (µs) observed by one delivered
// message. Nil-safe, like ObservePath.
func (t *Tally) AddQueue(waitUS int64) {
	if t == nil || waitUS <= 0 {
		return
	}
	atomic.AddInt64(&t.Queue, waitUS)
}

// PathEnd returns the latest observed path completion time, the virtual
// instant at which a subsequent sequential operation starts. Nil-safe.
func (t *Tally) PathEnd() int64 {
	if t == nil {
		return 0
	}
	return atomic.LoadInt64(&t.Latency)
}

// Snapshot returns a consistent copy using atomic loads; use it while other
// goroutines may still be adding.
func (t *Tally) Snapshot() Tally {
	return Tally{
		Messages:   atomic.LoadInt64(&t.Messages),
		Bytes:      atomic.LoadInt64(&t.Bytes),
		Hops:       atomic.LoadInt64(&t.Hops),
		Latency:    atomic.LoadInt64(&t.Latency),
		Queue:      atomic.LoadInt64(&t.Queue),
		Retries:    atomic.LoadInt64(&t.Retries),
		Failovers:  atomic.LoadInt64(&t.Failovers),
		Unanswered: atomic.LoadInt64(&t.Unanswered),
	}
}

// atomicMax raises *p to v if v is larger.
func atomicMax(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// AddTally merges another tally into t: counters (messages, bytes, queueing
// delay) sum, path measures max-fold.
func (t *Tally) AddTally(o Tally) {
	atomic.AddInt64(&t.Messages, o.Messages)
	atomic.AddInt64(&t.Bytes, o.Bytes)
	atomic.AddInt64(&t.Queue, o.Queue)
	atomic.AddInt64(&t.Retries, o.Retries)
	atomic.AddInt64(&t.Failovers, o.Failovers)
	atomic.AddInt64(&t.Unanswered, o.Unanswered)
	atomicMax(&t.Hops, o.Hops)
	atomicMax(&t.Latency, o.Latency)
}

// Sub returns t minus o componentwise, useful for diffing snapshots of the
// summed counters. The diff of the max-folded fields (Hops, Latency) is only
// meaningful when o precedes t on the same tally.
func (t Tally) Sub(o Tally) Tally {
	return Tally{
		Messages:   t.Messages - o.Messages,
		Bytes:      t.Bytes - o.Bytes,
		Hops:       t.Hops - o.Hops,
		Latency:    t.Latency - o.Latency,
		Queue:      t.Queue - o.Queue,
		Retries:    t.Retries - o.Retries,
		Failovers:  t.Failovers - o.Failovers,
		Unanswered: t.Unanswered - o.Unanswered,
	}
}

// String renders the tally for logs and reports.
func (t Tally) String() string {
	s := fmt.Sprintf("%d msgs / %d bytes", t.Messages, t.Bytes)
	if t.Hops > 0 || t.Latency > 0 {
		s += fmt.Sprintf(" / %d hops / %.2fms", t.Hops, float64(t.Latency)/1000)
	}
	if t.Queue > 0 {
		s += fmt.Sprintf(" / %.2fms queued", float64(t.Queue)/1000)
	}
	if t.Retries > 0 || t.Failovers > 0 || t.Unanswered > 0 {
		s += fmt.Sprintf(" / %d retries / %d failovers / %d unanswered",
			t.Retries, t.Failovers, t.Unanswered)
	}
	return s
}

// Histogram is a fixed-bucket histogram safe for concurrent use. Buckets are
// defined by ascending upper bounds; values above the last bound land in an
// overflow bucket. Quantiles are approximated by the upper bound of the
// bucket containing the requested rank, which is exact enough for the
// log-spaced latency buckets used here.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	max    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// LatencyBounds are log-spaced microsecond bounds from 100µs to ~16min,
// suitable for simulated wide-area latencies.
func LatencyBounds() []float64 {
	var out []float64
	for v := 100.0; v < 1e9; v *= 2 {
		out = append(out, v)
	}
	return out
}

// HopBounds are unit bounds for forwarding-chain lengths up to 64.
func HopBounds() []float64 {
	out := make([]float64, 64)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observed value.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile approximates the q-quantile (0 < q <= 1) by bucket upper bound;
// the overflow bucket reports the observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			// The log-spaced bucket bound can overshoot the largest value
			// actually seen; never report a quantile above the maximum.
			if i < len(h.bounds) && h.bounds[i] < h.max {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// Export returns a consistent copy of the histogram's state for encoders:
// the ascending bucket upper bounds, the per-bucket counts (one extra
// overflow bucket beyond the last bound), the total observation count and
// the value sum. The returned slices are private copies.
func (h *Histogram) Export() (bounds []float64, counts []int64, count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	counts = make([]int64, len(h.counts))
	copy(counts, h.counts)
	return bounds, counts, h.count, h.sum
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
}

// Collector aggregates tallies per message kind plus per-query latency and
// hop histograms. It is safe for concurrent use so the asynchronous runtime
// may drive the simulator from many goroutines.
type Collector struct {
	mu     sync.Mutex
	total  Tally
	byKind map[string]Tally

	latency *Histogram
	hops    *Histogram
	queue   *Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		byKind:  make(map[string]Tally),
		latency: NewHistogram(LatencyBounds()),
		hops:    NewHistogram(HopBounds()),
		queue:   NewHistogram(LatencyBounds()),
	}
}

// Record counts one message of the given kind and payload size.
func (c *Collector) Record(kind string, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total.Messages++
	c.total.Bytes += int64(bytes)
	t := c.byKind[kind]
	t.Messages++
	t.Bytes += int64(bytes)
	c.byKind[kind] = t
}

// ObserveQuery folds one completed query's path measures into the latency,
// hop and queueing histograms. Queries with no recorded path (hops == 0) are
// skipped.
func (c *Collector) ObserveQuery(t Tally) {
	if t.Hops == 0 && t.Latency == 0 {
		return
	}
	c.hops.Observe(float64(t.Hops))
	c.latency.Observe(float64(t.Latency))
	c.queue.Observe(float64(t.Queue))
}

// LatencyHist exposes the per-query simulated latency histogram (µs).
func (c *Collector) LatencyHist() *Histogram { return c.latency }

// HopsHist exposes the per-query hop-count histogram.
func (c *Collector) HopsHist() *Histogram { return c.hops }

// QueueHist exposes the per-query total queueing-delay histogram (µs),
// populated only by the actor executor.
func (c *Collector) QueueHist() *Histogram { return c.queue }

// Total returns a snapshot of the aggregate tally.
func (c *Collector) Total() Tally {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// ByKind returns a snapshot of the per-kind tallies.
func (c *Collector) ByKind() map[string]Tally {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Tally, len(c.byKind))
	for k, v := range c.byKind {
		out[k] = v
	}
	return out
}

// Reset zeroes all counters; the harness calls it between the load phase and
// the measured query phase.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.total = Tally{}
	c.byKind = make(map[string]Tally)
	c.mu.Unlock()
	c.latency.Reset()
	c.hops.Reset()
	c.queue.Reset()
}

// QueryReport renders the per-query latency and hop summaries gathered via
// ObserveQuery.
func (c *Collector) QueryReport() string {
	var b strings.Builder
	if n := c.hops.Count(); n > 0 {
		fmt.Fprintf(&b, "hops:    mean=%.2f p50=%.0f p95=%.0f max=%.0f (%d queries)\n",
			c.hops.Mean(), c.hops.Quantile(0.5), c.hops.Quantile(0.95), c.hops.Max(), n)
		fmt.Fprintf(&b, "latency: mean=%.2fms p50=%.2fms p95=%.2fms max=%.2fms\n",
			c.latency.Mean()/1000, c.latency.Quantile(0.5)/1000,
			c.latency.Quantile(0.95)/1000, c.latency.Max()/1000)
		if c.queue.Max() > 0 {
			fmt.Fprintf(&b, "queued:  mean=%.2fms p50=%.2fms p95=%.2fms max=%.2fms (actor mailbox wait)\n",
				c.queue.Mean()/1000, c.queue.Quantile(0.5)/1000,
				c.queue.Quantile(0.95)/1000, c.queue.Max()/1000)
		}
	}
	return b.String()
}
