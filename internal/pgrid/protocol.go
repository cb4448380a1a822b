package pgrid

import (
	"repro/internal/triples"
)

// Discrete-event protocol of the actor executor.
//
// These messages travel only on the asyncnet.Runtime, wrapped in
// asyncnet.Envelope frames that carry the operation's correlation id and the
// initiator to reply to. The network cost of every step is accounted
// separately on the fabric with the same wire messages the direct executor
// sends (lookupMsg, rangeMsg, resultMsg, ...), so message and byte counts are
// identical across executors; the structures below carry only the per-step
// state a handler needs to drive the next step.

// routeStepMsg is one iteration of Algorithm 1's routing loop (routeStep)
// at the peer it was delivered to. budget is the iterations left, counted
// down exactly as the direct executor's loop counts them, so a
// non-converging route fails with ErrRoutingExhausted after the same number
// of messages.
type routeStepMsg struct {
	hops   int64
	budget int
}

func (routeStepMsg) Size() int    { return 0 }
func (routeStepMsg) Kind() string { return "pgrid.step.route" }

// castStepMsg is one node of a multicast (castStep): serve the part of the
// cast this partition owns, forward the rest into the sibling subtries at
// levels >= scope.
type castStepMsg struct {
	c     cast
	scope int
	hops  int64
}

func (castStepMsg) Size() int    { return 0 }
func (castStepMsg) Kind() string { return "pgrid.step.cast" }

// applyMsg lands a routed insert or delete at a structural replica.
type applyMsg struct {
	hops int64
}

func (applyMsg) Size() int    { return 0 }
func (applyMsg) Kind() string { return "pgrid.step.apply" }

// opResult is the reply payload of the result-return leg: the postings a
// contacted peer contributes and the forwarding depth of the path that
// produced them.
type opResult struct {
	postings []triples.Posting
	hops     int64
}

func (opResult) Size() int    { return 0 }
func (opResult) Kind() string { return "pgrid.step.result" }
