package asyncnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"repro/internal/simnet"
)

// ErrNoActor is returned by Post for an unregistered destination.
var ErrNoActor = errors.New("asyncnet: no such actor")

// Event is one message delivery in the discrete-event runtime.
type Event struct {
	// At is the virtual time of the delivery (for handlers: the time the
	// actor starts processing the message).
	At simnet.VTime
	// Enqueued is the virtual time the message arrived at the actor's
	// mailbox; At - Enqueued is the queueing delay the message waited behind
	// earlier work.
	Enqueued simnet.VTime
	// From and To identify the link.
	From, To simnet.NodeID
	// Msg is the payload.
	Msg simnet.Message
}

// Handler processes one delivered message on behalf of an actor. Handlers
// run on the scheduler goroutine, one at a time, and may Post further
// messages (including to themselves, e.g. timers).
type Handler func(rt *Runtime, ev Event)

// heap entry kinds.
const (
	kindArrival = iota // message reaches the destination mailbox
	kindProcess        // actor starts processing a queued message
	kindControl        // scheduler callback (driver timers, see After)
)

// item is a heap entry: an arrival, a processing start, or a control event.
type item struct {
	at   simnet.VTime
	seq  uint64 // tie-break: FIFO among simultaneous events
	kind int
	ev   Event
	svc  simnet.VTime                       // kindProcess only: service charged at arrival
	fn   func(rt *Runtime, at simnet.VTime) // kindControl only
}

type eventHeap []*item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// actor is one registered peer: a mailbox and a serial processor with a
// fixed per-message service time.
type actor struct {
	id        simnet.NodeID
	handler   Handler
	pending   int // messages accepted but not yet processed
	busyUntil simnet.VTime
	service   simnet.VTime

	delivered  int
	maxPending int
	waitTotal  simnet.VTime // sum of (processing start - arrival) over deliveries
	busyTotal  simnet.VTime // sum of service time over deliveries

	// waitBuckets histograms per-message mailbox waits into power-of-two
	// buckets (index = bit length of the wait in µs), so queue percentiles
	// are available per peer without per-message storage. maxWait caps the
	// top bucket's reported upper bound at reality.
	waitBuckets [65]int64
	maxWait     simnet.VTime
}

// ActorStats reports one actor's counters.
type ActorStats struct {
	Delivered  int // messages processed by the handler
	Pending    int // messages queued but not yet processed
	MaxBacklog int // largest mailbox depth ever observed
	// QueueDelay is the total virtual time accepted messages waited in the
	// mailbox before processing started.
	QueueDelay simnet.VTime
	// Busy is the total virtual service time the actor spent processing.
	Busy simnet.VTime
	// QueueP50 and QueueP99 are the 50th and 99th percentile per-message
	// mailbox waits, estimated from power-of-two buckets (upper bound of the
	// quantile's bucket, capped at the largest wait observed).
	QueueP50, QueueP99 simnet.VTime
}

// ActorLoad pairs an actor id with its stats for whole-runtime reports.
type ActorLoad struct {
	ID    simnet.NodeID
	Stats ActorStats
}

// Runtime is a deterministic discrete-event scheduler: each registered actor
// owns a mailbox and processes one message at a time with a fixed service
// time; messages posted with a delay are delivered in (time, FIFO) order by a
// single scheduler goroutine, so a fixed schedule of Posts always yields the
// same delivery order regardless of wall-clock timing. The runtime never
// fails a posted message: every arrival is queued and processed. Faults
// (loss, crashed peers) belong to the fabric (simnet.FaultPlan,
// simnet.Network.SetDown), where the operators handle them.
type Runtime struct {
	mu     sync.Mutex
	now    simnet.VTime
	seq    uint64
	heap   eventHeap
	actors map[simnet.NodeID]*actor
	tracer *Tracer

	// issuers counts open issue windows (see BeginIssue): goroutines that
	// may still post events at the current virtual instant. Drain refuses to
	// step while any window is open, so a kickoff about to be posted is never
	// outrun — and then clamped forward — by the clock. Guarded by issueMu;
	// issueCond is signalled on every EndIssue so waiters park instead of
	// spinning through a client's compute stretch.
	issueMu   sync.Mutex
	issueCond *sync.Cond
	issuers   int64

	// svcRate, when positive, adds a size-proportional term to every
	// actor's per-message service time: a message of s bytes costs
	// TxTime(svcRate, s) extra processing. Models peers whose handling cost
	// scales with payload (deserialization, store writes), complementing the
	// Bandwidth latency model's wire term.
	svcRate int64

	// request/reply state (see reqreply.go).
	nextCorr uint64
	calls    map[CorrID]ReplyFn
}

// NewRuntime returns an empty runtime at virtual time zero.
func NewRuntime() *Runtime {
	rt := &Runtime{
		actors: make(map[simnet.NodeID]*actor),
		calls:  make(map[CorrID]ReplyFn),
	}
	rt.issueCond = sync.NewCond(&rt.issueMu)
	return rt
}

// Register adds an actor. service is the virtual processing time per
// message (0 = instantaneous). For an existing id only the handler and
// service time are updated, so in-flight mailbox accounting survives
// re-registration.
func (rt *Runtime) Register(id simnet.NodeID, service simnet.VTime, h Handler) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if a, ok := rt.actors[id]; ok {
		a.handler, a.service = h, service
		return
	}
	rt.actors[id] = &actor{id: id, handler: h, service: service}
}

// SetServiceRate makes every actor's service time message-size dependent: a
// message of s bytes costs TxTime(bytesPerSec, s) on top of the actor's
// fixed per-message service. <= 0 removes the term. The extra cost is a
// deterministic function of the message, so seeded schedules stay
// reproducible.
func (rt *Runtime) SetServiceRate(bytesPerSec int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.svcRate = bytesPerSec
}

// SetTracer installs a lifecycle tracer recording the enqueue/start/end
// transitions of every message on the runtime. Pass nil to disable; with no
// tracer installed every hook is a single nil check.
func (rt *Runtime) SetTracer(t *Tracer) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.tracer = t
}

// Tracer returns the installed lifecycle tracer (nil when disabled).
func (rt *Runtime) Tracer() *Tracer {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.tracer
}

// opOf extracts the owning operation's correlation id from a message (0 for
// bare messages outside the request/reply protocol).
func opOf(m simnet.Message) uint64 {
	if env, ok := m.(Envelope); ok {
		return uint64(env.Corr)
	}
	return 0
}

// Now returns the current virtual time.
func (rt *Runtime) Now() simnet.VTime {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.now
}

// Post schedules a message for arrival at Now()+delay. It is safe to call
// from handlers and from outside the scheduler.
func (rt *Runtime) Post(from, to simnet.NodeID, msg simnet.Message, delay simnet.VTime) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.postLocked(from, to, msg, rt.now+delay)
}

// PostAt schedules a message for arrival at the given absolute virtual time
// (clamped to Now() so the past cannot be rewritten). Handlers use it to
// forward a message whose arrival time was computed externally, e.g. by a
// fabric's latency model.
func (rt *Runtime) PostAt(from, to simnet.NodeID, msg simnet.Message, at simnet.VTime) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if at < rt.now {
		at = rt.now
	}
	return rt.postLocked(from, to, msg, at)
}

func (rt *Runtime) postLocked(from, to simnet.NodeID, msg simnet.Message, at simnet.VTime) error {
	if _, ok := rt.actors[to]; !ok {
		return fmt.Errorf("%w: %d", ErrNoActor, to)
	}
	rt.push(&item{at: at, kind: kindArrival, ev: Event{At: at, From: from, To: to, Msg: msg}})
	return nil
}

// After schedules fn to run on the scheduler at Now()+delay. Control events
// bypass mailboxes and service times; drivers use them as timers.
func (rt *Runtime) After(delay simnet.VTime, fn func(rt *Runtime, at simnet.VTime)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.push(&item{at: rt.now + delay, kind: kindControl, fn: fn})
}

// push assigns the FIFO sequence under rt.mu.
func (rt *Runtime) push(it *item) {
	it.seq = rt.seq
	rt.seq++
	heap.Push(&rt.heap, it)
}

// Step processes the next event, advancing the virtual clock. It returns
// false when no events remain.
func (rt *Runtime) Step() bool {
	rt.mu.Lock()
	if rt.heap.Len() == 0 {
		rt.mu.Unlock()
		return false
	}
	it := heap.Pop(&rt.heap).(*item)
	if it.at > rt.now {
		rt.now = it.at
	}
	if it.kind == kindControl {
		fn := it.fn
		at := it.at
		rt.mu.Unlock()
		if fn != nil {
			fn(rt, at)
		}
		return true
	}
	a := rt.actors[it.ev.To]
	tracer := rt.tracer
	switch it.kind {
	case kindArrival:
		a.pending++
		if a.pending > a.maxPending {
			a.maxPending = a.pending
		}
		svc := a.service
		if rt.svcRate > 0 && it.ev.Msg != nil {
			svc += TxTime(rt.svcRate, it.ev.Msg.Size())
		}
		start := rt.now
		if a.busyUntil > start {
			start = a.busyUntil
		}
		a.busyUntil = start + svc
		wait := start - rt.now
		a.waitTotal += wait
		a.busyTotal += svc
		a.waitBuckets[bits.Len64(uint64(wait))]++
		if wait > a.maxWait {
			a.maxWait = wait
		}
		ev := it.ev
		ev.Enqueued = rt.now
		ev.At = start
		rt.push(&item{at: start, kind: kindProcess, ev: ev, svc: svc})
		rt.mu.Unlock()
		if tracer != nil {
			m := it.ev.Msg
			tracer.Record(TraceRecord{At: it.at, Kind: TraceEnqueue, From: it.ev.From, To: it.ev.To,
				Op: opOf(m), Msg: m.Kind(), Size: m.Size()})
		}
	case kindProcess:
		a.pending--
		a.delivered++
		handler := a.handler
		ev := it.ev
		rt.mu.Unlock()
		if tracer != nil {
			m := ev.Msg
			op, kind, size := opOf(m), m.Kind(), m.Size()
			tracer.Record(TraceRecord{At: ev.At, Kind: TraceStart, From: ev.From, To: ev.To,
				Op: op, Msg: kind, Size: size, Wait: ev.At - ev.Enqueued})
			tracer.Record(TraceRecord{At: ev.At + it.svc, Kind: TraceEnd, From: ev.From, To: ev.To,
				Op: op, Msg: kind, Size: size, Wait: it.svc})
		}
		// Reply envelopes dispatch to the registered continuation; everything
		// else (requests included) goes to the actor's handler. Either way the
		// message paid its mailbox wait and service time above.
		if env, ok := ev.Msg.(Envelope); ok && env.IsReply {
			rt.dispatchReply(ev, env)
			return true
		}
		if handler != nil {
			handler(rt, ev)
		}
	}
	return true
}

// Run drains the event queue, returning the number of processed events.
func (rt *Runtime) Run() int {
	n := 0
	for rt.Step() {
		n++
	}
	return n
}

// BeginIssue opens an issue window: the calling goroutine announces that it
// may still post events at the current virtual instant (a kickoff it is
// about to compute, the next operation of a closed-loop client). Drain does
// not step while any window is open, which is what keeps asynchronously
// issued operations honest: without the window, a drain loop could consume
// virtual time past an operation's chosen start, and its kickoff would be
// clamped forward, inflating the operation's measured latency.
//
// Every BeginIssue must be balanced by EndIssue (possibly on another
// goroutine: a scheduler completing an operation may re-open the window on
// behalf of the client it resumes, handing it over without a gap).
func (rt *Runtime) BeginIssue() {
	rt.issueMu.Lock()
	rt.issuers++
	rt.issueMu.Unlock()
}

// EndIssue closes one issue window, waking waiters (Drain, spawn barriers).
func (rt *Runtime) EndIssue() {
	rt.issueMu.Lock()
	rt.issuers--
	rt.issueCond.Broadcast()
	rt.issueMu.Unlock()
}

// openIssues reports the number of open issue windows.
func (rt *Runtime) openIssues() int64 {
	rt.issueMu.Lock()
	defer rt.issueMu.Unlock()
	return rt.issuers
}

// WaitIssues parks the caller until at most target issue windows remain
// open: a drain loop waits for 0 before stepping; a spawn barrier waits for
// its own holdings before launching the next issuer. Parking (instead of
// spinning) matters when an issuer computes between operations — gram
// expansion, candidate merging — with its window open.
func (rt *Runtime) WaitIssues(target int64) {
	rt.issueMu.Lock()
	for rt.issuers > target {
		rt.issueCond.Wait()
	}
	rt.issueMu.Unlock()
}

// Drain is the drain-once loop of asynchronous operation issue: post N
// kickoffs (PostAt, or through issuing goroutines gated by BeginIssue),
// then call Drain once to step the shared heap in global virtual-time
// order. It returns the number of processed events when done reports true
// (checked between steps), or — with a nil done — when the event queue is
// empty and no issue window remains open. While a window is open an empty
// or nonempty heap parks instead of stepping, so concurrently issued work
// is never outrun by the clock.
func (rt *Runtime) Drain(done func() bool) int {
	n := 0
	for {
		if done != nil && done() {
			return n
		}
		rt.WaitIssues(0)
		if rt.Step() {
			n++
			continue
		}
		if done == nil && rt.openIssues() == 0 {
			return n
		}
		// Heap empty but the caller's predicate not yet satisfied (a body is
		// between its last EndIssue and signalling completion): yield briefly.
		runtime.Gosched()
	}
}

// Stats reports an actor's counters.
func (rt *Runtime) Stats(id simnet.NodeID) ActorStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	a, ok := rt.actors[id]
	if !ok {
		return ActorStats{}
	}
	return a.stats()
}

func (a *actor) stats() ActorStats {
	return ActorStats{
		Delivered:  a.delivered,
		Pending:    a.pending,
		MaxBacklog: a.maxPending,
		QueueDelay: a.waitTotal,
		Busy:       a.busyTotal,
		QueueP50:   a.waitQuantile(0.50),
		QueueP99:   a.waitQuantile(0.99),
	}
}

// waitQuantile estimates a mailbox-wait percentile from the power-of-two
// buckets: the upper bound of the bucket holding the quantile's observation,
// capped at the largest wait actually seen.
func (a *actor) waitQuantile(q float64) simnet.VTime {
	var total int64
	for _, c := range a.waitBuckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range a.waitBuckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			upper := simnet.VTime(uint64(1)<<uint(i)) - 1
			if upper > a.maxWait {
				upper = a.maxWait
			}
			return upper
		}
	}
	return a.maxWait
}

// AllStats snapshots every actor's counters, ordered by id, so tools can
// render per-peer load tables deterministically.
func (rt *Runtime) AllStats() []ActorLoad {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]ActorLoad, 0, len(rt.actors))
	for id, a := range rt.actors {
		out = append(out, ActorLoad{ID: id, Stats: a.stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
