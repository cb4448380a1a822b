package pgrid

import (
	"repro/internal/asyncnet"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// ExecMode selects the query execution engine of a grid.
type ExecMode int

const (
	// ExecChain runs operators as direct calls threading virtual-time
	// arithmetic (the paper's shared-memory model). Logically parallel
	// branches follow the fabric's Fanout contract, which *simnet.Network
	// implements by chaining them.
	ExecChain ExecMode = iota
	// ExecActor runs every operator step as a message handler on a
	// discrete-event runtime: each peer is an actor with a mailbox and a
	// per-message service time, so queueing delay and per-peer load become
	// first-class observables. Routing, results and hop
	// counts are identical to ExecChain for the same seed.
	ExecActor
)

// String names the mode for flags and reports.
func (m ExecMode) String() string {
	switch m {
	case ExecActor:
		return "actor"
	default:
		return "chain"
	}
}

// executor drives the operators' per-peer steps (step.go) against one epoch
// snapshot. Every method receives the view its operation must observe
// throughout (epoch snapshotting stays churn-safe regardless of engine) and
// an explicit virtual start time.
type executor interface {
	lookup(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) ([]triples.Posting, simnet.VTime, error)
	multiLookup(v *view, t *metrics.Tally, from simnet.NodeID, hks []hashedKey, start simnet.VTime) ([]triples.Posting, simnet.VTime, error)
	rangeQuery(v *view, t *metrics.Tally, from simnet.NodeID, iv, ivH keys.Interval, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error)
	// write routes an insert or delete and reports whether it changed the
	// owner's store.
	write(v *view, t *metrics.Tally, from simnet.NodeID, w *write) (bool, error)
	// fanout runs logically parallel branch expansions issued above the grid
	// (similarity candidate phases, top-N window probes, join selections).
	fanout(start simnet.VTime, branches int, run func(i int, start simnet.VTime) simnet.VTime) simnet.VTime
	// concurrent runs n closed-loop client bodies, each issuing operations in
	// program order. The actor engine issues all bodies onto one shared
	// virtual timeline (mailbox queueing between operations of different
	// bodies is modelled); the chained engine runs bodies serially — it has
	// no cross-operation contention model, so serial execution yields the
	// same results and costs by construction.
	concurrent(n int, body func(i int))
	// attach makes a newly joined peer addressable by the engine.
	attach(id simnet.NodeID)
	// awaitWriteDrain blocks until no routed write is between its fenced
	// owner apply and its last replica apply (Grid.pendingWrites == 0).
	// Called with memberMu held; the actor engine releases it around heap
	// steps so it can complete the in-flight applies itself.
	awaitWriteDrain()
}

// Fanout executes logically parallel branch expansions under the grid's
// execution model: chained per the fabric's contract (ExecChain), or forked
// at one virtual instant on the discrete-event timeline (ExecActor).
// Operators above the grid use it instead of talking to the fabric directly,
// so the same code measures both execution models.
func (g *Grid) Fanout(start simnet.VTime, branches int, run func(i int, start simnet.VTime) simnet.VTime) simnet.VTime {
	return g.exec.fanout(start, branches, run)
}

// Concurrent runs n closed-loop client bodies against the grid. On the
// actor engine every body is a gated issuer on the runtime's one virtual
// timeline: bodies' operations are injected as kickoff events, a single
// drain loop steps the shared heap, and per-operation tallies therefore
// include the mailbox queueing an operation suffers behind *other* bodies'
// operations — the cross-operation contention term of the cost model.
// Bodies are spawned in index order with deterministic first-issue ordering,
// so a fixed seed reproduces latencies and queueing exactly. On the chained
// engine, which models no cross-operation contention, bodies run serially in
// index order and return identical results and message costs.
func (g *Grid) Concurrent(n int, body func(i int)) {
	g.exec.concurrent(n, body)
}

// Runtime exposes the discrete-event runtime of an actor-mode grid (nil for
// chain mode): tools read per-peer mailbox stats from it.
func (g *Grid) Runtime() *asyncnet.Runtime {
	if x, ok := g.exec.(*actorExec); ok {
		return x.rt
	}
	return nil
}
