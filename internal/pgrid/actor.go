package pgrid

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/asyncnet"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// actorExec runs query operators as message handlers on a discrete-event
// runtime: every peer is an actor with a mailbox and a per-message service
// time, and every routing step, multicast node, replica apply and result
// return is a real request or reply message with a correlation id.
// The handlers drive the same per-peer steps as the direct executor
// (step.go), one step per delivered message. Congestion is therefore
// modelled, not simulated by arithmetic: messages wait behind earlier work in
// mailboxes, the wait is tallied as queueing delay, and per-peer service load
// and backlog are observable on the runtime.
//
// Operations from many issuers share the one timeline (Grid.Concurrent, and
// the executor's own fanout of sibling branches), so queueing *between*
// concurrently issued operations is modelled with the same mechanism as
// queueing within one: everything is just messages contending for mailboxes
// on a single virtual clock.
//
// Invariants shared with the chained executor:
//
//   - every operation consumes exactly one membership epoch (the view in its
//     actorOp), so structural churn stays safe mid-flight;
//   - both executors drive the same steps, whose reference picks are pure and
//     whose network cost is accounted through the same fabric wire messages,
//     so for a fixed seed, results, routes, hop counts, messages and bytes
//     are identical across executors — only latency gains the queueing and
//     service terms the arithmetic model cannot express.
type actorExec struct {
	g       *Grid
	rt      *asyncnet.Runtime
	service simnet.VTime

	// draining is nonzero while a drain loop owns the runtime (group). In
	// that regime operation waiters park on their completion signal instead
	// of pumping the heap themselves, and the issue-window gate (see
	// asyncnet.Runtime.BeginIssue) keeps the drain from outrunning a client
	// that is about to post its next kickoff.
	//
	// Contract: while a Concurrent/Fanout group is active, operations must be
	// issued from group bodies (or from handlers the drain loop runs) — every
	// concurrent caller goes through Grid.Concurrent, so the drain flag alone
	// decides the regime and no per-goroutine registry is needed.
	draining atomic.Int32

	mu  sync.Mutex
	ops map[asyncnet.CorrID]*actorOp
}

func newActorExec(g *Grid) *actorExec {
	x := &actorExec{
		g:       g,
		rt:      asyncnet.NewRuntime(),
		service: g.cfg.Service,
		ops:     make(map[asyncnet.CorrID]*actorOp),
	}
	x.rt.SetServiceRate(g.cfg.ServiceRate)
	return x
}

// gatedSelf reports whether operation waits must park under an active drain
// loop. By the issuing contract (see the draining field) every goroutine that
// issues operations while a group is active is a gated group body, so the
// drain flag alone answers the question.
func (x *actorExec) gatedSelf() bool {
	return x.draining.Load() > 0
}

// attach registers a peer as an actor. Departed peers stay registered: an
// in-flight operation on an older epoch may still address them, and its view
// keeps their stores readable (the drain semantics of epoch snapshots).
func (x *actorExec) attach(id simnet.NodeID) {
	x.rt.Register(id, x.service, x.handle)
}

// awaitWriteDrain waits out in-flight write applies. Actor-mode applies are
// events on the shared heap, and the drain loop that would step them may
// itself be paused by the waiting goroutine's open issue window — so the
// waiter pumps the heap itself, releasing memberMu around each step so
// apply handlers can take it.
func (x *actorExec) awaitWriteDrain() {
	g := x.g
	for g.pendingWrites > 0 {
		g.memberMu.Unlock()
		if !x.rt.Step() {
			runtime.Gosched()
		}
		g.memberMu.Lock()
	}
}

// opKind names the operation in trace records.
type opKind int

const (
	opLookup opKind = iota
	opInsert
	opDelete
	opShower
	opMulti
)

// String names the operation kind for trace records.
func (k opKind) String() string {
	switch k {
	case opLookup:
		return "lookup"
	case opInsert:
		return "insert"
	case opDelete:
		return "delete"
	case opShower:
		return "range"
	case opMulti:
		return "multilookup"
	default:
		return "op"
	}
}

// actorOp is the in-flight state of one operation: its epoch snapshot,
// parameters, result collector and the outstanding-message counter that
// detects completion (an operation is done when every posted message has
// been processed or failed).
type actorOp struct {
	corr asyncnet.CorrID
	x    *actorExec
	v    *view
	t    *metrics.Tally
	from simnet.NodeID
	kind opKind
	// base maps runtime time back to the operation's requested timeline:
	// the runtime clock is monotonic across operations, while callers chain
	// operations from explicit start times.
	base simnet.VTime

	// route is the routed leg of every operation but the batched multicast.
	// Where it stops, a lookup serves key, a range query starts the shower
	// rng, and a write lands w.
	route route
	key   keys.Key
	rng   *rangeCast
	w     *write

	mu      sync.Mutex
	pending int
	// parked marks that the issuing goroutine waits on done under an active
	// drain and has released its issue window; whoever completes the
	// operation re-opens the window on the waiter's behalf before signalling,
	// handing it over without a gap the drain loop could slip through.
	parked bool
	// writeFence marks that writeStep opened a write-apply phase for this
	// operation; the last resolved message closes it (endWrite) so
	// membership moves waiting on the drain may proceed.
	writeFence bool
	results    []triples.Posting
	errs       []error
	changed    bool         // a write changed the owner's store
	maxEnd     simnet.VTime // latest observed path end, runtime timeline
	done       chan struct{}
}

// addPending records n in-flight messages.
func (op *actorOp) addPending(n int) {
	op.mu.Lock()
	op.pending += n
	op.mu.Unlock()
}

// finishMsg resolves one in-flight message; the last one completes the
// operation. If the issuer parked on the completion (concurrent issue under
// a drain loop), its issue window is re-opened here — before the signal — so
// the drain cannot advance the clock between the operation's completion and
// the issuer's next kickoff.
func (op *actorOp) finishMsg() {
	op.mu.Lock()
	op.pending--
	last := op.pending == 0
	parked := op.parked
	fenced := op.writeFence
	op.mu.Unlock()
	if last {
		if fenced {
			// Every replica apply of this write has landed (or failed for
			// good): close the apply phase the owner apply opened.
			op.x.g.endWrite()
		}
		if parked {
			op.x.rt.BeginIssue()
		}
		close(op.done)
	}
}

// recordErr notes a failure, if any, without resolving a message.
func (op *actorOp) recordErr(err error) {
	if err == nil {
		return
	}
	op.mu.Lock()
	op.errs = append(op.errs, err)
	op.mu.Unlock()
}

// fail resolves one in-flight message with a failure (an unpostable message).
func (op *actorOp) fail(err error) {
	op.recordErr(err)
	op.finishMsg()
}

// addResults collects postings that reached the initiator.
func (op *actorOp) addResults(res []triples.Posting) {
	op.mu.Lock()
	op.results = append(op.results, res...)
	op.mu.Unlock()
}

// observe folds one completed path into the tally on the operation's own
// timeline and tracks the operation's end time.
func (op *actorOp) observe(hops int64, endRT simnet.VTime) {
	op.t.ObservePath(hops, int64(endRT-op.base))
	op.mu.Lock()
	if endRT > op.maxEnd {
		op.maxEnd = endRT
	}
	op.mu.Unlock()
}

// newOp builds an operation around one epoch snapshot and registers its
// result-return continuation under a fresh correlation id.
func (x *actorExec) newOp(v *view, t *metrics.Tally, from simnet.NodeID, kind opKind, start simnet.VTime) (*actorOp, simnet.VTime) {
	op := &actorOp{x: x, v: v, t: t, from: from, kind: kind, done: make(chan struct{})}
	op.corr = x.rt.Open(func(rt *asyncnet.Runtime, ev asyncnet.Event, payload simnet.Message) {
		// The reply paid the initiator's mailbox wait and service time like
		// any other message; harvest it.
		op.t.AddQueue(int64(ev.At - ev.Enqueued))
		r := payload.(opResult)
		op.addResults(r.postings)
		op.observe(r.hops, ev.At)
		op.finishMsg()
	})
	at := start
	if now := x.rt.Now(); at < now {
		at = now
	}
	op.base = at - start
	op.maxEnd = at
	x.mu.Lock()
	x.ops[op.corr] = op
	x.mu.Unlock()
	// Thread the operation id into the trace: every later record of this
	// operation's messages carries the same correlation id.
	if tr := x.rt.Tracer(); tr != nil {
		tr.Record(asyncnet.TraceRecord{At: at, Kind: asyncnet.TraceIssue,
			From: from, To: from, Op: uint64(op.corr), Msg: kind.String()})
	}
	return op, at
}

// post schedules one protocol message, counting it against the operation.
// arriveAt is the runtime-timeline arrival computed by the fabric's latency
// model at send time.
func (x *actorExec) post(op *actorOp, from, to simnet.NodeID, payload simnet.Message, arriveAt simnet.VTime) {
	op.addPending(1)
	env := asyncnet.Envelope{Corr: op.corr, ReplyTo: op.from, Payload: payload}
	if err := x.rt.PostAt(from, to, env, arriveAt); err != nil {
		op.fail(err)
	}
}

// answer sends a contacted peer's result leg (Grid.answer) and, when it
// arrives, posts the matching reply envelope, which reaches the operation's
// continuation after queueing at the initiator.
func (x *actorExec) answer(op *actorOp, here simnet.NodeID, res []triples.Posting, served bool, hops int64, now simnet.VTime) leg {
	l, arrive, err := x.g.answer(op.t, here, op.from, res, served, now)
	op.recordErr(err)
	if l != legSent {
		return l
	}
	op.addPending(1)
	if err := x.rt.Reply(here, asyncnet.Envelope{Corr: op.corr, ReplyTo: op.from},
		opResult{postings: res, hops: hops + 1}, arrive); err != nil {
		op.fail(err)
		return legNone
	}
	return legSent
}

// run completes an issued operation and collects its outcome. Two regimes:
//
//   - Sequential issue (no drain loop active): the caller pumps the shared
//     heap itself until the operation completes — exactly the pre-existing
//     per-episode behaviour, byte-identical tallies included.
//   - Concurrent issue (a drain loop owns the runtime): the caller is a
//     gated issuer; it parks on the operation's completion signal and the
//     drain loop steps the shared heap. Every concurrently issued
//     operation's events then interleave in global virtual-time order, so
//     mailbox queueing between operations is modelled, and an operation's
//     tally derives from its own kickoff and completion events on the one
//     shared timeline — per-operation latency and queueing are exact under
//     concurrent issue too (cross-operation contention appears as honest
//     queueing delay, never as clock clamping).
//
// Completion is signalled through the operation's outstanding-message
// counter, so waiting never depends on which goroutine processed the final
// message.
func (x *actorExec) run(op *actorOp) ([]triples.Posting, simnet.VTime, error) {
	if x.gatedSelf() {
		// The park decision is atomic with finishMsg's pending-count
		// decrement: whoever takes op.mu first wins. If the operation already
		// completed (pending == 0 — settled at issue time), the completer saw
		// parked == false and left our issue window alone, so we collect
		// still holding it. Otherwise parked is set before the completer can
		// read it, and the window handoff is guaranteed.
		op.mu.Lock()
		if op.pending == 0 {
			op.mu.Unlock()
			<-op.done
			return x.collect(op)
		}
		op.parked = true
		op.mu.Unlock()
		x.rt.EndIssue()
		<-op.done // completer re-opened our issue window before signalling
		return x.collect(op)
	}
	for {
		select {
		case <-op.done:
			return x.collect(op)
		default:
		}
		if !x.rt.Step() {
			// Nothing schedulable: either the operation just completed on
			// another goroutine, or its next event is mid-processing there.
			select {
			case <-op.done:
			default:
				runtime.Gosched()
			}
		}
	}
}

// collect closes out a completed operation and returns its outcome on the
// operation's own timeline.
func (x *actorExec) collect(op *actorOp) ([]triples.Posting, simnet.VTime, error) {
	x.rt.Close(op.corr)
	x.mu.Lock()
	delete(x.ops, op.corr)
	x.mu.Unlock()
	op.mu.Lock()
	res, end, err := op.results, op.maxEnd-op.base, errors.Join(op.errs...)
	op.mu.Unlock()
	return res, end, err
}

// opFor resolves the operation a delivered envelope belongs to.
func (x *actorExec) opFor(corr asyncnet.CorrID) *actorOp {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ops[corr]
}

// handle is the per-peer message handler: it drives one step for the peer
// the runtime addressed (ev.To) against the owning operation's epoch
// snapshot.
func (x *actorExec) handle(rt *asyncnet.Runtime, ev asyncnet.Event) {
	env, ok := ev.Msg.(asyncnet.Envelope)
	if !ok {
		return
	}
	op := x.opFor(env.Corr)
	if op == nil {
		return
	}
	op.t.AddQueue(int64(ev.At - ev.Enqueued))
	defer op.finishMsg()
	switch m := env.Payload.(type) {
	case routeStepMsg:
		x.onRouteStep(op, ev, m)
	case castStepMsg:
		x.cast(op, ev.To, ev.At, m.c, m.scope, m.hops)
	case applyMsg:
		x.g.applyReplicaWrite(op.v, ev.To, op.w.hk, op.w.apply)
		op.observe(m.hops, ev.At)
	}
}

// onRouteStep drives one route step per delivery and, where the route stops,
// performs the operation's action.
func (x *actorExec) onRouteStep(op *actorOp, ev asyncnet.Event, m routeStepMsg) {
	p, next, err := x.g.routeStep(op.v, op.t, &op.route, ev.To, ev.At, m.budget)
	switch {
	case next.ok:
		x.post(op, ev.To, next.to, routeStepMsg{hops: m.hops + 1, budget: m.budget - 1}, next.at)
	case p == nil:
		op.recordErr(err)
	case op.w != nil:
		x.land(op, p, m.hops, ev.At)
	case op.rng != nil:
		x.cast(op, p.id, ev.At, cast{rng: op.rng}, 0, m.hops)
	default:
		res := p.localPrefix(op.key)
		if x.answer(op, p.id, res, true, m.hops, ev.At) != legSent {
			// Like the direct executor: a lost result leg still hands the
			// caller what the owner found.
			op.addResults(res)
			op.observe(m.hops, ev.At)
		}
	}
}

// cast drives the cast step at peer here: the result leg first, then one
// posted step per forward, in branch order.
func (x *actorExec) cast(op *actorOp, here simnet.NodeID, now simnet.VTime, c cast, scope int, hops int64) {
	local, served, fwds, splitErr := x.g.castStep(op.v, op.t, here, c, scope)
	if x.answer(op, here, local, served, hops, now) == legSilent {
		// Silence means "no results", but the query still travelled here:
		// fold the forwarding path into the tally.
		op.observe(hops, now)
	}
	op.recordErr(splitErr)
	for _, f := range fwds {
		next, err := x.g.sendForward(op.v, op.t, here, c, f, now)
		if !next.ok {
			op.recordErr(err)
			continue
		}
		x.post(op, here, next.to, castStepMsg{c: c.along(f), scope: f.level + 1, hops: hops + 1}, next.at)
	}
}

// land drives the write step at the owner p and posts one apply per replica
// push that arrived; the last resolved message closes the apply phase
// (finishMsg).
func (x *actorExec) land(op *actorOp, p *Peer, hops int64, now simnet.VTime) {
	changed, pushes, err := x.g.writeStep(op.v, op.t, p, op.w, now)
	op.mu.Lock()
	op.writeFence, op.changed = true, changed
	op.mu.Unlock()
	op.recordErr(err)
	end := now
	for _, h := range pushes {
		end = max(end, h.at)
		x.post(op, p.id, h.to, applyMsg{hops: hops + 1}, h.at)
	}
	op.observe(hops+boolInt64(len(p.replicas) > 0), end)
}

// --- executor interface ---

// routed issues an operation with a routed leg: its first route step is a
// self-addressed message, so issuing is itself a message through the
// initiator's mailbox. It waits for the operation's outcome.
func (x *actorExec) routed(op *actorOp, at simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	x.post(op, op.from, op.from, routeStepMsg{budget: op.route.budget()}, at)
	return x.run(op)
}

func (x *actorExec) lookup(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	op, at := x.newOp(v, t, from, opLookup, start)
	op.key = k
	op.route = keyRoute(x.g.h.hash(k), false, func() simnet.Message { return lookupMsg{key: k} })
	return x.routed(op, at)
}

func (x *actorExec) multiLookup(v *view, t *metrics.Tally, from simnet.NodeID, hks []hashedKey, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	op, at := x.newOp(v, t, from, opMulti, start)
	x.post(op, from, from, castStepMsg{c: cast{keys: hks}}, at)
	return x.run(op)
}

func (x *actorExec) rangeQuery(v *view, t *metrics.Tally, from simnet.NodeID, iv, ivH keys.Interval, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	op, at := x.newOp(v, t, from, opShower, start)
	op.rng = &rangeCast{iv: iv, ivH: ivH, opts: opts}
	op.route = op.rng.route()
	return x.routed(op, at)
}

func (x *actorExec) write(v *view, t *metrics.Tally, from simnet.NodeID, w *write) (bool, error) {
	kind := opInsert
	if w.rm != nil {
		kind = opDelete
	}
	op, at := x.newOp(v, t, from, kind, simnet.VTime(t.PathEnd()))
	op.w = w
	op.route = w.route()
	_, _, err := x.routed(op, at)
	op.mu.Lock()
	defer op.mu.Unlock()
	return op.changed, err
}

// fanout hands every branch the same virtual start time, so branch
// *accounting* forks at one instant and the group ends at the max branch end
// — the critical-path contract the cross-executor oracle relies on. Branch
// bodies are issued asynchronously onto the one shared timeline (group):
// every sibling's kickoff lands in the heap before the drain loop steps, so
// mailbox contention BETWEEN sibling ops-level branches is modelled exactly
// like contention within one grid operation. With zero per-peer service time
// no queueing arises and the accounting reduces to critical-path arithmetic,
// which the cross-executor oracle pins against a test fabric computing it
// directly.
func (x *actorExec) fanout(start simnet.VTime, branches int, run func(i int, start simnet.VTime) simnet.VTime) simnet.VTime {
	ends := make([]simnet.VTime, branches)
	x.group(branches, func(i int) { ends[i] = run(i, start) })
	end := start
	for _, e := range ends {
		if e > end {
			end = e
		}
	}
	return end
}

// concurrent implements the executor interface's closed-loop client surface:
// each body issues grid operations in program order; all bodies share the
// runtime's one virtual timeline, so operations of different bodies contend
// in mailboxes exactly as the cost model demands.
func (x *actorExec) concurrent(n int, body func(i int)) {
	x.group(n, body)
}

// group runs n issuing bodies against the shared discrete-event heap.
//
// Determinism: bodies are spawned in index order and the spawner waits, via
// the issue-window gate, until each body has either parked on its first
// operation or finished before spawning the next — so the heap's FIFO
// tie-break among simultaneous kickoffs is the index order, independent of
// goroutine scheduling. Thereafter a single drain loop steps events; each
// step resumes at most one parked issuer, which holds the gate (pausing the
// drain) until it has posted its next kickoff or finished. A fixed seed
// therefore yields identical event orders, latencies and queueing tallies
// run over run, even for concurrent issue.
func (x *actorExec) group(n int, body func(i int)) {
	switch {
	case n <= 0:
		return
	case x.gatedSelf():
		// This goroutine is itself a group body under a drain loop up the
		// stack (nested branch expansion, a client fanning out): issue the
		// sub-group under that drain.
		x.groupNested(n, body)
	case n == 1:
		// Sequential single body: the classic pump-own-episode regime.
		body(0)
	default:
		x.groupDrain(n, body)
	}
}

// groupDrain is the outermost group: it spawns the bodies as gated issuers
// and becomes the drain loop that steps the shared heap until all bodies
// returned.
func (x *actorExec) groupDrain(n int, body func(i int)) {
	x.draining.Add(1)
	defer x.draining.Add(-1)
	var remaining atomic.Int64
	remaining.Store(int64(n))
	allDone := make(chan struct{})
	for i := 0; i < n; i++ {
		x.rt.BeginIssue()
		go func(i int) {
			body(i)
			x.rt.EndIssue()
			if remaining.Add(-1) == 0 {
				close(allDone)
			}
		}(i)
		if i < n-1 {
			x.rt.WaitIssues(0) // body i parked or finished: kickoff order is fixed
		}
	}
	x.rt.Drain(func() bool {
		select {
		case <-allDone:
			return true
		default:
			return false
		}
	})
}

// groupNested issues bodies under an active drain loop owned further up the
// stack. The spawner is itself a gated issuer holding one issue window; it
// spawns bodies in index order (waiting for each to park or finish, its own
// window keeping the drain paused meanwhile) and then trades its window for
// the last finishing body's, so the drain never slips between the group's
// completion and the spawner's resumption.
func (x *actorExec) groupNested(n int, body func(i int)) {
	if n == 1 {
		body(0)
		return
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	handoff := make(chan struct{})
	for i := 0; i < n; i++ {
		x.rt.BeginIssue()
		go func(i int) {
			body(i)
			if remaining.Add(-1) == 0 {
				close(handoff) // keep this window open: the spawner inherits it
				return
			}
			x.rt.EndIssue()
		}(i)
		if i < n-1 {
			x.rt.WaitIssues(1) // 1 = the spawner's own window
		}
	}
	x.rt.EndIssue() // release our window while the drain completes the bodies
	<-handoff       // resume owning the last body's window
}
