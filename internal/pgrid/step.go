package pgrid

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// The per-peer steps of the grid's operators. A step takes one peer and the
// message delivered there and returns the peer's local part and the forwards
// the operation continues with. The executors only drive the steps: the
// direct executor by recursion on a cursor (chain.go), the actor executor by
// events on the discrete-event runtime (actor.go). Both drive the same
// steps, so routes, results, hop counts, messages and bytes agree by
// construction.
//
//   - routeStep is one iteration of Algorithm 1's routing loop.
//   - castStep is one node of a multicast, the batched multicast of Section 4
//     or the shower of reference [6]; answer sends a contacted peer's result
//     leg and sendForward each forward into a sibling subtrie.
//   - writeStep lands a routed insert or delete at its owner and pushes it to
//     the owner's replicas.
//
// Every failed branch is reported through branchErr: a read's failure is
// degraded under the retry policy, a write's always surfaces.

// branchErr reports a failed branch of an operation. A read's failure becomes
// an unanswered probe under the retry policy (degradeReadErr), so the query
// keeps its partial results; a write's failure always surfaces.
func (g *Grid) branchErr(t *metrics.Tally, write bool, err error) error {
	if write {
		return err
	}
	return g.degradeReadErr(t, err)
}

// hop is a forwarded message that arrived: the node it reached (a replica of
// the addressed one after failover) and when. ok is false when the send
// failed.
type hop struct {
	to simnet.NodeID
	at simnet.VTime
	ok bool
}

// --- route ---

// route is the routed leg of an operation (Algorithm 1's Retrieve
// delegation): the hashed-space target, the salt that rotates reference
// picks per target, where the walk stops, and the message every hop sends.
type route struct {
	target keys.Key
	salt   uint64
	// span, when set, stops the walk at the first peer whose path overlaps
	// it (a range query); otherwise the walk stops at the peer responsible
	// for target.
	span  *keys.Interval
	write bool // failures surface instead of degrading
	wire  func() simnet.Message
}

// keyRoute routes toward the peer responsible for the hashed key hk.
func keyRoute(hk keys.Key, write bool, wire func() simnet.Message) route {
	return route{target: hk, salt: routeSalt(hk), write: write, wire: wire}
}

// budget bounds the walk's iterations. The common prefix with the target
// grows by at least one bit per hop, so a complete trie converges within
// target.Len() hops.
func (r *route) budget() int { return r.target.Len() + 2 }

func (r *route) stop(p *Peer) bool {
	if r.span != nil {
		return r.span.OverlapsPrefix(p.path)
	}
	return p.Responsible(r.target)
}

// routeStep is one iteration of Algorithm 1 at peer at, with budget
// iterations left. It returns the peer when the route stops there. Otherwise
// it picks a reference in the complementary subtrie at the divergence level,
// sends the route's message there at now, and returns the hop. When the
// route fails (no budget left, no live reference, an unreachable target) it
// returns neither, and err is the failure: nil when a read's was degraded.
func (g *Grid) routeStep(v *view, t *metrics.Tally, r *route, at simnet.NodeID, now simnet.VTime, budget int) (*Peer, hop, error) {
	if budget <= 0 {
		return nil, hop{}, g.branchErr(t, r.write, ErrRoutingExhausted)
	}
	p, err := v.peer(at)
	if err != nil {
		return nil, hop{}, g.branchErr(t, r.write, err)
	}
	if r.stop(p) {
		return p, hop{}, nil
	}
	next, err := g.pickRef(v, p, p.path.CommonPrefixLen(r.target), r.salt)
	var arrive simnet.VTime
	if err == nil {
		next, arrive, err = g.sendFailover(v, t, at, next, r.wire, now)
	}
	if err != nil {
		return nil, hop{}, g.branchErr(t, r.write, err)
	}
	return nil, hop{to: next, at: arrive, ok: true}, nil
}

// --- cast ---

// hashedKey pairs an original key with its hashed-space image during batched
// routing.
type hashedKey struct {
	orig keys.Key
	h    keys.Key
}

// cast is what one multicast node serves and splits: a key batch (the
// batched multicast Section 4 describes, which "contacts peers only once")
// or an interval (the shower of reference [6]).
type cast struct {
	keys []hashedKey // key batch still to deliver at or below this node
	rng  *rangeCast  // the interval; nil for a key batch
}

// rangeCast is a shower's interval: iv in original space, evaluated against
// stored keys, and its hashed image ivH, which prunes the trie.
type rangeCast struct {
	iv, ivH keys.Interval
	opts    RangeOptions
}

// wire is the message that carries the range query, on its routed leg and
// on every shower forward.
func (rc *rangeCast) wire() simnet.Message {
	return rangeMsg{iv: rc.iv, filterBytes: rc.opts.FilterBytes}
}

// route is the range query's routed leg: toward the interval's low end, up
// to the first peer inside the range.
func (rc *rangeCast) route() route {
	return route{target: rc.ivH.Lo, salt: routeSalt(rc.ivH.Lo), span: &rc.ivH, wire: rc.wire}
}

// forward is one branch of a multicast node into a sibling subtrie: the
// level at which it leaves the node's path, the reference picked there, and
// the keys it carries (key batch only).
type forward struct {
	level int
	next  simnet.NodeID
	keys  []hashedKey
}

// along is the cast forward f delivers.
func (c cast) along(f forward) cast { return cast{keys: f.keys, rng: c.rng} }

// wire builds the accounted message of forward f.
func (c cast) wire(f forward) simnet.Message {
	if c.rng != nil {
		return c.rng.wire()
	}
	origs := make([]keys.Key, len(f.keys))
	for j, k := range f.keys {
		origs[j] = k.orig
	}
	return multiLookupMsg{keys: origs}
}

// castStep is one multicast node at peer at. It serves the part of c this
// partition owns and splits the rest over the sibling subtries at levels >=
// scope. It returns the postings served and whether anything was served,
// which decide the result leg (answer), and the forwards in branch order,
// unsent: each driver sends them after the result leg (sendForward).
func (g *Grid) castStep(v *view, t *metrics.Tally, at simnet.NodeID, c cast, scope int) (local []triples.Posting, served bool, fwds []forward, err error) {
	p, err := v.peer(at)
	if err != nil {
		return nil, false, nil, g.branchErr(t, false, err)
	}
	var rest []hashedKey
	if c.rng != nil {
		if served = c.rng.ivH.OverlapsPrefix(p.path); served {
			local = p.localRange(c.rng.iv, c.rng.opts.Filter)
		}
	} else {
		rest = c.keys[:0:0]
		for _, k := range c.keys {
			if p.Responsible(k.h) {
				served = true
				local = append(local, p.localPrefix(k.orig)...)
			} else {
				rest = append(rest, k)
			}
		}
	}
	fwds, err = g.split(v, t, p, c, rest, scope)
	return local, served, fwds, err
}

// split picks one live reference for every sibling subtrie of p at levels
// >= scope that has anything to deliver: a shower's overlapping subtries, or
// the subtries holding the keys of a batch that p did not serve (rest).
// Reference picks are pure, so every driver forks identical branches.
func (g *Grid) split(v *view, t *metrics.Tally, p *Peer, c cast, rest []hashedKey, scope int) ([]forward, error) {
	var fwds []forward
	var errs []error
	for l := scope; l < p.path.Len(); l++ {
		sibling := p.path.Prefix(l + 1).FlipLast()
		var sub []hashedKey
		if c.rng != nil {
			if !c.rng.ivH.OverlapsPrefix(sibling) {
				continue
			}
		} else {
			if len(rest) == 0 {
				break
			}
			var keep []hashedKey
			for _, k := range rest {
				if k.h.HasPrefix(sibling) || sibling.HasPrefix(k.h) {
					sub = append(sub, k)
				} else {
					keep = append(keep, k)
				}
			}
			if rest = keep; len(sub) == 0 {
				continue
			}
		}
		next, err := g.pickRef(v, p, l, routeSalt(sibling))
		if err != nil {
			if err = g.branchErr(t, false, err); err != nil {
				errs = append(errs, err)
			}
			continue
		}
		fwds = append(fwds, forward{level: l, next: next, keys: sub})
	}
	return fwds, errors.Join(errs...)
}

// leg is the fate of a contacted peer's result leg.
type leg uint8

const (
	legNone   leg = iota // nothing served, or the leg was lost
	legSilent            // served with nothing to send: the path ends here
	legSent              // the result leg reached the initiator
)

// answer sends a contacted peer's result leg from `from` to the initiator
// `to` at now when one is owed: postings were found (silence means "no
// results"). It returns the leg's fate and arrival. A lost leg is a read
// failure.
func (g *Grid) answer(t *metrics.Tally, from, to simnet.NodeID, res []triples.Posting, served bool, now simnet.VTime) (leg, simnet.VTime, error) {
	if len(res) == 0 {
		if served {
			return legSilent, now, nil
		}
		return legNone, now, nil
	}
	arrive, err := g.sendRetrans(t, from, to, func() simnet.Message { return resultMsg{postings: res} }, now)
	if err != nil {
		return legNone, now, g.branchErr(t, false, err)
	}
	return legSent, arrive, nil
}

// sendForward sends forward f of cast c from at, departing at depart, under
// the retry policy.
func (g *Grid) sendForward(v *view, t *metrics.Tally, at simnet.NodeID, c cast, f forward, depart simnet.VTime) (hop, error) {
	to, arrive, err := g.sendFailover(v, t, at, f.next, func() simnet.Message { return c.wire(f) }, depart)
	if err != nil {
		return hop{}, g.branchErr(t, false, err)
	}
	return hop{to: to, at: arrive, ok: true}, nil
}

// --- write ---

// write is a routed insert, or a delete when rm is set.
type write struct {
	key     keys.Key // original-space key
	hk      keys.Key // its hashed-space image, which the write routes to
	posting triples.Posting
	rm      *removal
}

// apply lands the write in one store and reports whether it changed it.
func (w *write) apply(q *Peer) bool {
	if w.rm != nil {
		return q.localRemove(w.key, w.rm)
	}
	q.localPut(w.key, w.posting)
	return true
}

// route is the write's routed leg to the owner.
func (w *write) route() route {
	return keyRoute(w.hk, true, func() simnet.Message {
		if w.rm != nil {
			return deleteMsg{key: w.key}
		}
		return insertMsg{key: w.key, posting: w.posting}
	})
}

// push is the message of one replica push.
func (w *write) push() simnet.Message {
	if w.rm != nil {
		return deleteMsg{key: w.key}
	}
	return replicateMsg{key: w.key, posting: w.posting}
}

// writeStep lands w at p, the owner its route stopped at, fenced against
// membership moves (applyOwnerWrite, which opens the write's apply phase).
// Then it sends the push to each of p's structural replicas at now. It
// returns whether the owner's store changed and the pushes that arrived, in
// replica order; the driver lands each with applyReplicaWrite and then closes
// the apply phase with endWrite. Failed pushes surface in err.
func (g *Grid) writeStep(v *view, t *metrics.Tally, p *Peer, w *write, now simnet.VTime) (changed bool, pushes []hop, err error) {
	changed = g.applyOwnerWrite(v, p, w.hk, w.apply)
	var errs []error
	for _, r := range p.replicas {
		arrive, err := g.sendRetrans(t, p.id, r, w.push, now)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		pushes = append(pushes, hop{to: r, at: arrive, ok: true})
	}
	return changed, pushes, errors.Join(errs...)
}
