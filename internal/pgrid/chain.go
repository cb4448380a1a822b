package pgrid

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// chainExec is the call-threaded execution engine: it drives the per-peer
// steps (step.go) by direct recursion, virtual time is pure arithmetic
// carried in a cursor, and logically parallel branches follow the fabric's
// Fanout contract (chained under the serial simulator). This is the paper's
// shared-memory execution model.
type chainExec struct {
	g *Grid
}

func (x *chainExec) fanout(start simnet.VTime, branches int, run func(i int, start simnet.VTime) simnet.VTime) simnet.VTime {
	return x.g.net.Fanout(start, branches, run)
}

// concurrent runs closed-loop client bodies serially: the chained engine
// models no cross-operation contention, so serial issue returns the same
// results, messages and (arithmetic) latencies as any interleaving would.
func (x *chainExec) concurrent(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

func (x *chainExec) attach(simnet.NodeID) {}

// awaitWriteDrain waits out in-flight write applies. Chained writes run to
// completion on their issuing goroutines, so a condition wait (which
// releases memberMu while parked) is all that is needed; endWrite signals.
func (x *chainExec) awaitWriteDrain() {
	for x.g.pendingWrites > 0 {
		x.g.writeDrained.Wait()
	}
}

// route drives the route step from `from` until the walk stops, advancing
// the cursor by each hop's modelled link latency. It returns the peer the
// route stopped at, or nil and the failure (nil when a read's was degraded).
func (x *chainExec) route(v *view, t *metrics.Tally, r route, from simnet.NodeID, cur cursor) (*Peer, cursor, error) {
	at := from
	for budget := r.budget(); ; budget-- {
		p, next, err := x.g.routeStep(v, t, &r, at, cur.at, budget)
		if !next.ok {
			return p, cur, err
		}
		at, cur = next.to, cursor{at: next.at, hops: cur.hops + 1}
	}
}

func (x *chainExec) lookup(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	g := x.g
	p, cur, err := x.route(v, t, keyRoute(g.h.hash(k), false, func() simnet.Message { return lookupMsg{key: k} }),
		from, cursor{at: start})
	if p == nil {
		return nil, cur.at, err
	}
	res := p.localPrefix(k)
	// A lost result leg still hands the caller what the owner found.
	l, arrive, err := g.answer(t, p.id, from, res, true, cur.at)
	if l == legSent {
		cur = cursor{at: arrive, hops: cur.hops + 1}
	}
	return res, cur.finish(t), err
}

func (x *chainExec) multiLookup(v *view, t *metrics.Tally, from simnet.NodeID, hks []hashedKey, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	return x.cast(v, t, from, from, cast{keys: hks}, 0, cursor{at: start})
}

func (x *chainExec) rangeQuery(v *view, t *metrics.Tally, from simnet.NodeID, iv, ivH keys.Interval, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	rc := &rangeCast{iv: iv, ivH: ivH, opts: opts}
	p, cur, err := x.route(v, t, rc.route(), from, cursor{at: start})
	if p == nil {
		return nil, cur.at, err
	}
	return x.cast(v, t, from, p.id, cast{rng: rc}, 0, cur)
}

// cast drives the cast step at peer at and recurses into its forwards. The
// sibling forwards are logically parallel; under the serial fabric they
// chain — the Fanout contract of simnet.Fabric.
func (x *chainExec) cast(v *view, t *metrics.Tally, initiator, at simnet.NodeID, c cast, scope int, cur cursor) ([]triples.Posting, simnet.VTime, error) {
	g := x.g
	local, served, fwds, splitErr := g.castStep(v, t, at, c, scope)
	end := cur.at
	l, arrive, err := g.answer(t, at, initiator, local, served, cur.at)
	switch l {
	case legSent:
		end = cursor{at: arrive, hops: cur.hops + 1}.finish(t)
	case legSilent:
		// Silence means "no results", but the query still travelled here:
		// fold the forwarding path into the tally.
		cur.finish(t)
	default:
		local = nil
	}

	results := make([][]triples.Posting, len(fwds))
	errs := make([]error, len(fwds))
	fanEnd := g.net.Fanout(cur.at, len(fwds), func(i int, start simnet.VTime) simnet.VTime {
		f := fwds[i]
		next, err := g.sendForward(v, t, at, c, f, start)
		if !next.ok {
			errs[i] = err
			return start
		}
		res, bEnd, err := x.cast(v, t, initiator, next.to, c.along(f), f.level+1,
			cursor{at: next.at, hops: cur.hops + 1})
		results[i], errs[i] = res, err
		return bEnd
	})

	out := local
	for _, r := range results {
		out = append(out, r...)
	}
	return out, max(end, fanEnd), errors.Join(err, splitErr, errors.Join(errs...))
}

func (x *chainExec) write(v *view, t *metrics.Tally, from simnet.NodeID, w *write) (bool, error) {
	g := x.g
	p, cur, err := x.route(v, t, w.route(), from, opStart(t))
	if p == nil {
		return false, err
	}
	changed, pushes, err := g.writeStep(v, t, p, w, cur.at)
	end := cur.at
	for _, h := range pushes {
		end = max(end, h.at)
		g.applyReplicaWrite(v, h.to, w.hk, w.apply)
	}
	g.endWrite()
	t.ObservePath(cur.hops+boolInt64(len(p.replicas) > 0), int64(end))
	return changed, err
}
