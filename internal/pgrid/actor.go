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
// runtime: every peer is an actor with a bounded mailbox and a per-message
// service time, and every routing step, shower split, multicast split,
// replica apply and result return is a real request or reply message with a
// correlation id. Congestion is therefore modelled, not simulated by
// arithmetic: messages wait behind earlier work in mailboxes, the wait is
// tallied as queueing delay, and per-peer service load and backlog are
// observable on the runtime.
//
// Operations can be issued asynchronously onto the one shared timeline —
// post N kickoffs, drain once (Grid.Issue*/DrainIssued, Grid.Concurrent,
// and the executor's own fanout of sibling branches) — so queueing *between*
// concurrently issued operations is modelled with the same mechanism as
// queueing within one: everything is just messages contending for mailboxes
// on a single virtual clock.
//
// Invariants shared with the chained executor:
//
//   - every operation consumes exactly one membership epoch (the view in its
//     actorOp), so structural churn stays safe mid-flight;
//   - routes are picked by the same pure pickRef and the network cost of
//     every step is accounted through the same fabric wire messages, so for
//     a fixed seed, results, routes, hop counts, messages and bytes are
//     identical across executors — only latency gains the queueing and
//     service terms the arithmetic model cannot express.
type actorExec struct {
	g       *Grid
	rt      *asyncnet.Runtime
	service simnet.VTime
	mailbox int

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

// actorMailboxDefault effectively unbounds mailboxes unless the
// configuration asks for backpressure studies: dropping operator messages
// would diverge from the chained executors' results.
const actorMailboxDefault = 1 << 20

func newActorExec(g *Grid) *actorExec {
	mb := g.cfg.Mailbox
	if mb <= 0 {
		mb = actorMailboxDefault
	}
	x := &actorExec{
		g:       g,
		rt:      asyncnet.NewRuntime(),
		service: g.cfg.Service,
		mailbox: mb,
		ops:     make(map[asyncnet.CorrID]*actorOp),
	}
	x.rt.SetServiceRate(g.cfg.ServiceRate)
	return x
}

// gatedSelf reports whether operation waits must park under an active drain
// loop. By the issuing contract (see the draining field) every goroutine that
// issues operations while a group is active is a gated group body, so the
// drain flag alone answers the question — the goroutine-id registry that used
// to distinguish legacy raw issuers is gone along with its last callers.
func (x *actorExec) gatedSelf() bool {
	return x.draining.Load() > 0
}

// attach registers a peer as an actor. Departed peers stay registered: an
// in-flight operation on an older epoch may still address them, and its view
// keeps their stores readable (the drain semantics of epoch snapshots).
func (x *actorExec) attach(id simnet.NodeID) {
	x.rt.Register(id, x.mailbox, x.service, x.handle)
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

// opKind selects the routed operation's action at the responsible peer.
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
// been processed, dropped or failed).
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
	// deadline, when nonzero, is the runtime-timeline instant after which
	// the operation's messages are stale: arrivals past it are dropped by
	// the runtime and fail their step with ErrTimeout.
	deadline simnet.VTime

	// routed-operation parameters.
	orig    keys.Key
	target  keys.Key
	salt    uint64
	posting triples.Posting
	match   func(triples.Posting) bool
	// shower parameters.
	iv, ivH keys.Interval
	opts    RangeOptions

	mu      sync.Mutex
	pending int
	// parked marks that the issuing goroutine waits on done under an active
	// drain and has released its issue window; whoever completes the
	// operation re-opens the window on the waiter's behalf before signalling,
	// handing it over without a gap the drain loop could slip through.
	parked bool
	// writeFence marks that applyOwnerWrite opened a write-apply phase for
	// this operation; the last resolved message closes it (endWrite) so
	// membership moves waiting on the drain may proceed.
	writeFence bool
	results    []triples.Posting
	errs       []error
	deleted    bool
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
// operation. If the issuer parked on the completion (asynchronous issue
// under a drain loop), its issue window is re-opened here — before the
// signal — so the drain cannot advance the clock between the operation's
// completion and the issuer's next kickoff.
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

// recordErr notes a failure without resolving a message.
func (op *actorOp) recordErr(err error) {
	op.mu.Lock()
	op.errs = append(op.errs, err)
	op.mu.Unlock()
}

// fail resolves one in-flight message with a failure (dropped or unpostable).
func (op *actorOp) fail(err error) {
	op.recordErr(err)
	op.finishMsg()
}

// readFailed records a failed branch of a read operation, degrading it into
// an unanswered probe when the retry policy is enabled: the query keeps its
// partial results. Write failures always surface.
func (op *actorOp) readFailed(err error) {
	if op.kind == opInsert || op.kind == opDelete {
		op.recordErr(err)
		return
	}
	if err = op.x.g.degradeReadErr(op.t, err); err != nil {
		op.recordErr(err)
	}
}

// failBranch resolves one in-flight message of a failed branch, degrading
// reads like readFailed.
func (op *actorOp) failBranch(err error) {
	op.readFailed(err)
	op.finishMsg()
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

// stop is the routing loop's termination predicate.
func (op *actorOp) stop(p *Peer) bool {
	if op.kind == opShower {
		return op.ivH.OverlapsPrefix(p.path)
	}
	return p.Responsible(op.target)
}

// wire builds the accounted fabric message of one forwarding step.
func (op *actorOp) wire() simnet.Message {
	switch op.kind {
	case opInsert:
		return insertMsg{key: op.orig, posting: op.posting}
	case opDelete:
		return deleteMsg{key: op.orig}
	case opShower:
		return rangeMsg{iv: op.iv, filterBytes: op.opts.FilterBytes}
	default:
		return lookupMsg{key: op.orig}
	}
}

// newOp builds an operation around one epoch snapshot and registers its
// result-return continuation under a fresh correlation id.
func (x *actorExec) newOp(v *view, t *metrics.Tally, from simnet.NodeID, kind opKind, start simnet.VTime) (*actorOp, simnet.VTime) {
	op := &actorOp{x: x, v: v, t: t, from: from, kind: kind, done: make(chan struct{})}
	op.corr = x.rt.Open(true, func(rt *asyncnet.Runtime, ev asyncnet.Event, payload simnet.Message, err error) {
		if err != nil {
			// A dropped protocol message (deadline, mailbox, runtime-level
			// loss) fails this branch; reads degrade it to an unanswered
			// probe under the retry policy.
			op.failBranch(err)
			return
		}
		// The reply paid the initiator's mailbox wait and service time like
		// any other message; harvest it.
		op.t.AddQueue(int64(ev.At - ev.Enqueued))
		r := payload.(opResult)
		op.mu.Lock()
		op.results = append(op.results, r.postings...)
		op.mu.Unlock()
		op.observe(r.hops, ev.At)
		op.finishMsg()
	})
	at := start
	if now := x.rt.Now(); at < now {
		at = now
	}
	op.base = at - start
	op.maxEnd = at
	if x.g.cfg.Deadline > 0 {
		op.deadline = at + x.g.cfg.Deadline
	}
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
	env := asyncnet.Envelope{Corr: op.corr, ReplyTo: op.from, Deadline: op.deadline, Payload: payload}
	if err := x.rt.PostAt(from, to, env, arriveAt); err != nil {
		op.fail(err)
	}
}

// reply sends the result-return leg: the fabric accounts a resultMsg from
// the contacted peer to the initiator, and the matching reply envelope is
// dispatched to the operation's continuation after queueing at the
// initiator. A send failure (initiator crashed) mirrors the chained
// executor: the error is recorded and the results are lost.
func (x *actorExec) reply(op *actorOp, from simnet.NodeID, res []triples.Posting, hops int64, departRT simnet.VTime) bool {
	arrive, err := x.g.sendRetrans(op.t, from, op.from,
		func() simnet.Message { return resultMsg{postings: res} }, departRT)
	if err != nil {
		op.readFailed(err)
		return false
	}
	op.addPending(1)
	if err := x.rt.Reply(from, asyncnet.Envelope{Corr: op.corr, ReplyTo: op.from, Deadline: op.deadline},
		opResult{postings: res, hops: hops + 1}, arrive); err != nil {
		op.fail(err)
		return false
	}
	return true
}

// run completes an issued operation and collects its outcome. Two regimes:
//
//   - Sequential issue (no drain loop active): the caller pumps the shared
//     heap itself until the operation completes — exactly the pre-existing
//     per-episode behaviour, byte-identical tallies included.
//   - Asynchronous issue (a drain loop owns the runtime): the caller is a
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
	x.release(op)
	op.mu.Lock()
	res, end, err := op.results, op.maxEnd-op.base, errors.Join(op.errs...)
	op.mu.Unlock()
	return res, end, err
}

func (x *actorExec) release(op *actorOp) {
	x.rt.Close(op.corr)
	x.mu.Lock()
	delete(x.ops, op.corr)
	x.mu.Unlock()
}

// opFor resolves the operation a delivered envelope belongs to.
func (x *actorExec) opFor(corr asyncnet.CorrID) *actorOp {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ops[corr]
}

// handle is the per-peer message handler: it dispatches one delivered
// protocol message for the peer the runtime addressed (ev.To) against the
// owning operation's epoch snapshot.
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
	switch m := env.Payload.(type) {
	case routeStepMsg:
		x.onRouteStep(op, ev, m)
	case multiStepMsg:
		x.onMultiStep(op, ev, m)
	case showerStepMsg:
		x.onShowerStep(op, ev, m.scope, m.hops)
	case applyMsg:
		x.onApply(op, ev, m)
	}
}

// onRouteStep is the actor form of the chained routing loop: one iteration
// per delivery.
func (x *actorExec) onRouteStep(op *actorOp, ev asyncnet.Event, m routeStepMsg) {
	defer op.finishMsg()
	if m.budget <= 0 {
		op.readFailed(ErrRoutingExhausted)
		return
	}
	here, now := ev.To, ev.At
	p, err := op.v.peer(here)
	if err != nil {
		op.readFailed(err)
		return
	}
	if op.stop(p) {
		x.arrived(op, ev, p, m.hops)
		return
	}
	l := p.path.CommonPrefixLen(op.target)
	next, err := x.g.pickRef(op.v, p, l, op.salt)
	if err != nil {
		op.readFailed(err)
		return
	}
	reached, arrive, err := x.g.sendFailover(op.v, op.t, here, next, op.wire, now)
	if err != nil {
		op.readFailed(err)
		return
	}
	x.post(op, here, reached, routeStepMsg{hops: m.hops + 1, budget: m.budget - 1}, arrive)
}

// arrived performs the operation's action at the peer the routing loop
// stopped at.
func (x *actorExec) arrived(op *actorOp, ev asyncnet.Event, p *Peer, hops int64) {
	here, now := ev.To, ev.At
	switch op.kind {
	case opLookup:
		res := p.localPrefix(op.orig)
		if len(res) > 0 || x.g.cfg.ReplyEmpty {
			if !x.reply(op, here, res, hops, now) {
				// Mirror chainExec.lookup's error path: the postings were
				// found even though the result message failed, so the caller
				// still receives them alongside the recorded error.
				op.mu.Lock()
				op.results = append(op.results, res...)
				op.mu.Unlock()
				op.observe(hops, now)
			}
			return
		}
		op.observe(hops, now)
	case opInsert:
		x.g.applyOwnerWrite(op.v, p, op.target, func(q *Peer) bool {
			q.localPut(op.orig, op.posting)
			return true
		})
		op.mu.Lock()
		op.writeFence = true
		op.mu.Unlock()
		x.applyAtReplicas(op, p, here, false, hops, now)
	case opDelete:
		deleted := x.g.applyOwnerWrite(op.v, p, op.target, func(q *Peer) bool {
			return q.localDelete(op.orig, op.match)
		})
		op.mu.Lock()
		op.writeFence = true
		op.mu.Unlock()
		if deleted {
			op.mu.Lock()
			op.deleted = true
			op.mu.Unlock()
		}
		x.applyAtReplicas(op, p, here, true, hops, now)
	case opShower:
		x.onShowerStep(op, ev, 0, hops)
	}
}

// applyAtReplicas pushes a routed write to the partition's structural
// replicas; each push is an accounted fabric message followed by an apply at
// the replica's actor.
func (x *actorExec) applyAtReplicas(op *actorOp, p *Peer, here simnet.NodeID, del bool, hops int64, now simnet.VTime) {
	end := now
	wire := func() simnet.Message {
		if del {
			return deleteMsg{key: op.orig}
		}
		return replicateMsg{key: op.orig, posting: op.posting}
	}
	for _, r := range p.replicas {
		arrive, err := x.g.sendRetrans(op.t, here, r, wire, now)
		if err != nil {
			op.recordErr(err)
			continue
		}
		if arrive > end {
			end = arrive
		}
		x.post(op, here, r, applyMsg{del: del, hops: hops + 1}, arrive)
	}
	op.observe(hops+boolInt64(len(p.replicas) > 0), end)
}

// onApply lands a replica push.
func (x *actorExec) onApply(op *actorOp, ev asyncnet.Event, m applyMsg) {
	defer op.finishMsg()
	x.g.applyReplicaWrite(op.v, ev.To, op.target, func(q *Peer) bool {
		if m.del {
			return q.localDelete(op.orig, op.match)
		}
		q.localPut(op.orig, op.posting)
		return true
	})
	op.observe(m.hops, ev.At)
}

// onMultiStep is the actor form of the batched multicast node.
func (x *actorExec) onMultiStep(op *actorOp, ev asyncnet.Event, m multiStepMsg) {
	defer op.finishMsg()
	here, now := ev.To, ev.At
	p, err := op.v.peer(here)
	if err != nil {
		op.recordErr(err)
		return
	}
	var local []triples.Posting
	served := false
	rest := m.keys[:0:0]
	for _, k := range m.keys {
		if p.Responsible(k.h) {
			served = true
			local = append(local, p.localPrefix(k.orig)...)
		} else {
			rest = append(rest, k)
		}
	}
	if len(local) > 0 || (x.g.cfg.ReplyEmpty && served) {
		x.reply(op, here, local, m.hops, now)
	} else if served {
		op.observe(m.hops, now)
	}

	branches, pickErrs := splitMultiBranches(x.g, op.v, p, rest, m.scope)
	for _, e := range pickErrs {
		op.readFailed(e)
	}
	for _, b := range branches {
		b := b
		reached, arrive, err := x.g.sendFailover(op.v, op.t, here, b.next,
			func() simnet.Message { return multiLookupWire(b.keys) }, now)
		if err != nil {
			op.readFailed(err)
			continue
		}
		x.post(op, here, reached, multiStepMsg{keys: b.keys, scope: b.level + 1, hops: m.hops + 1}, arrive)
	}
}

// onShowerStep is the actor form of the shower multicast node; the routing
// entry peer calls it directly with scope 0.
func (x *actorExec) onShowerStep(op *actorOp, ev asyncnet.Event, scope int, hops int64) {
	if scope > 0 {
		defer op.finishMsg()
	}
	here, now := ev.To, ev.At
	p, err := op.v.peer(here)
	if err != nil {
		op.recordErr(err)
		return
	}
	if op.ivH.OverlapsPrefix(p.path) {
		res := p.localRange(op.iv, op.opts.Filter)
		if len(res) > 0 || x.g.cfg.ReplyEmpty {
			x.reply(op, here, res, hops, now)
		} else {
			// Silence means "no results", but the query still travelled
			// here: fold the forwarding path into the tally.
			op.observe(hops, now)
		}
	}
	branches, pickErrs := splitShowerBranches(x.g, op.v, p, op.ivH, scope)
	for _, e := range pickErrs {
		op.readFailed(e)
	}
	for _, b := range branches {
		reached, arrive, err := x.g.sendFailover(op.v, op.t, here, b.next,
			func() simnet.Message { return rangeMsg{iv: op.iv, filterBytes: op.opts.FilterBytes} }, now)
		if err != nil {
			op.readFailed(err)
			continue
		}
		x.post(op, here, reached, showerStepMsg{scope: b.level + 1, hops: hops + 1}, arrive)
	}
}

// --- executor interface ---

// kickRoute posts the self-addressed first routing step: issuing a query is
// itself a message through the initiator's mailbox.
func (x *actorExec) kickRoute(op *actorOp, at simnet.VTime) {
	x.post(op, op.from, op.from, routeStepMsg{budget: op.target.Len() + 2}, at)
}

// issueLookup posts a lookup's kickoff without waiting: the returned
// operation completes when a drain loop (or a pumping waiter) has stepped
// its events.
func (x *actorExec) issueLookup(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) *actorOp {
	op, at := x.newOp(v, t, from, opLookup, start)
	op.orig, op.target = k, x.g.h.hash(k)
	op.salt = routeSalt(op.target)
	x.kickRoute(op, at)
	return op
}

// issueMultiLookup posts a batched multicast's kickoff without waiting.
func (x *actorExec) issueMultiLookup(v *view, t *metrics.Tally, from simnet.NodeID, hks []hashedKey, start simnet.VTime) *actorOp {
	op, at := x.newOp(v, t, from, opMulti, start)
	x.post(op, from, from, multiStepMsg{keys: hks}, at)
	return op
}

// issueRange posts a shower multicast's kickoff without waiting.
func (x *actorExec) issueRange(v *view, t *metrics.Tally, from simnet.NodeID, iv, ivH keys.Interval, opts RangeOptions, start simnet.VTime) *actorOp {
	op, at := x.newOp(v, t, from, opShower, start)
	op.iv, op.ivH, op.opts = iv, ivH, opts
	op.target = ivH.Lo
	op.salt = routeSalt(ivH.Lo)
	x.kickRoute(op, at)
	return op
}

func (x *actorExec) lookup(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	return x.run(x.issueLookup(v, t, from, k, start))
}

func (x *actorExec) multiLookup(v *view, t *metrics.Tally, from simnet.NodeID, hks []hashedKey, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	return x.run(x.issueMultiLookup(v, t, from, hks, start))
}

func (x *actorExec) rangeQuery(v *view, t *metrics.Tally, from simnet.NodeID, iv, ivH keys.Interval, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	return x.run(x.issueRange(v, t, from, iv, ivH, opts, start))
}

func (x *actorExec) insert(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, posting triples.Posting) error {
	op, at := x.newOp(v, t, from, opInsert, simnet.VTime(t.PathEnd()))
	op.orig, op.target, op.posting = k, x.g.h.hash(k), posting
	op.salt = routeSalt(op.target)
	x.kickRoute(op, at)
	_, _, err := x.run(op)
	return err
}

func (x *actorExec) remove(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, match func(triples.Posting) bool) (bool, error) {
	op, at := x.newOp(v, t, from, opDelete, simnet.VTime(t.PathEnd()))
	op.orig, op.target, op.match = k, x.g.h.hash(k), match
	op.salt = routeSalt(op.target)
	x.kickRoute(op, at)
	_, _, err := x.run(op)
	op.mu.Lock()
	deleted := op.deleted
	op.mu.Unlock()
	return deleted, err
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
			x.waitIssues(0) // body i parked or finished: kickoff order is fixed
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
			x.waitIssues(1) // 1 = the spawner's own window
		}
	}
	x.rt.EndIssue() // release our window while the drain completes the bodies
	<-handoff       // resume owning the last body's window
}

// waitIssues parks until the number of open issue windows drops to target:
// every spawned body below the caller has either parked on an operation or
// finished.
func (x *actorExec) waitIssues(target int64) {
	x.rt.WaitIssues(target)
}
