package asyncnet

import (
	"repro/internal/simnet"
)

// Request/reply on the discrete-event runtime.
//
// A call is a registered continuation keyed by a correlation id. Requests
// travel as Envelope messages to the destination actor's handler; replies
// travel back as Envelope messages with IsReply set and are dispatched to
// the continuation after paying the initiator's mailbox wait and service
// time (replies queue like any other message — a congested initiator is
// slow to absorb its own results). A call receives every reply addressed to
// it until Close; the operators harvest streamed results from many peers
// under one correlation id this way.

// CorrID correlates a request with its replies.
type CorrID uint64

// Envelope is the wire frame of the request/reply protocol: a payload plus
// correlation metadata. Envelopes travel only on the runtime; any fabric
// accounting of the payload is the sender's business.
type Envelope struct {
	// Corr identifies the call this envelope belongs to.
	Corr CorrID
	// ReplyTo is the node replies should be addressed to (requests only).
	ReplyTo simnet.NodeID
	// Payload is the operator message.
	Payload simnet.Message
	// IsReply marks reply envelopes, dispatched to the call continuation.
	IsReply bool
}

// Size implements simnet.Message by deferring to the payload.
func (e Envelope) Size() int {
	if e.Payload != nil {
		return e.Payload.Size()
	}
	return 0
}

// Kind implements simnet.Message.
func (e Envelope) Kind() string {
	if e.Payload != nil {
		return e.Payload.Kind()
	}
	if e.IsReply {
		return "asyncnet.reply"
	}
	return "asyncnet.request"
}

// ReplyFn consumes one reply of a call. ev is the delivery event at the
// reply-to actor.
type ReplyFn func(rt *Runtime, ev Event, payload simnet.Message)

// Open registers a continuation and returns a fresh correlation id. The
// continuation receives every reply until Close.
func (rt *Runtime) Open(fn ReplyFn) CorrID {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextCorr++
	corr := CorrID(rt.nextCorr)
	rt.calls[corr] = fn
	return corr
}

// Close deregisters a call, reporting whether it was still open. Replies
// arriving after Close are discarded.
func (rt *Runtime) Close(corr CorrID) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.calls[corr]
	delete(rt.calls, corr)
	return ok
}

// dispatchReply routes a processed reply envelope to its continuation.
func (rt *Runtime) dispatchReply(ev Event, env Envelope) {
	rt.mu.Lock()
	fn := rt.calls[env.Corr]
	rt.mu.Unlock()
	if fn != nil {
		fn(rt, ev, env.Payload)
	}
}

// Reply sends the answer of a request envelope back to its caller, arriving
// at the given absolute virtual time (the sender accounts link latency).
func (rt *Runtime) Reply(from simnet.NodeID, req Envelope, payload simnet.Message, at simnet.VTime) error {
	return rt.PostAt(from, req.ReplyTo, Envelope{Corr: req.Corr, Payload: payload, IsReply: true}, at)
}
