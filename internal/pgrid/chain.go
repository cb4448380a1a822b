package pgrid

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// chainExec is the call-threaded execution engine: operators walk the trie
// with direct function calls, virtual time is pure arithmetic carried in a
// cursor, and logically parallel branches follow the fabric's Fanout
// contract (chained under the serial simulator). This is the paper's
// shared-memory execution model.
type chainExec struct {
	g *Grid
}

func (x *chainExec) fanout(start simnet.VTime, branches int, run func(i int, start simnet.VTime) simnet.VTime) simnet.VTime {
	return x.g.net.Fanout(start, branches, run)
}

// concurrent runs closed-loop client bodies serially: the chained engines
// model no cross-operation contention, so serial issue returns the same
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

// routeToward implements the routing loop of Algorithm 1: starting at from,
// repeatedly forward to a reference in the complementary subtrie at the
// divergence level until stop(peer) holds. target is a hashed-space key. Each
// hop sends one message built by mkMsg and advances the cursor by the
// modelled link latency. The common prefix with the target grows by at least
// one bit per hop, so the loop terminates within target.Len() hops on a
// complete trie.
func (x *chainExec) routeToward(v *view, t *metrics.Tally, from simnet.NodeID, target keys.Key,
	stop func(*Peer) bool, mkMsg func() simnet.Message, cur cursor) (simnet.NodeID, cursor, error) {

	g := x.g
	salt := routeSalt(target)
	at := from
	for hop := 0; hop <= target.Len()+1; hop++ {
		p, err := v.peer(at)
		if err != nil {
			return 0, cur, err
		}
		if stop(p) {
			return at, cur, nil
		}
		l := p.path.CommonPrefixLen(target)
		next, err := g.pickRef(v, p, l, salt)
		if err != nil {
			return 0, cur, err
		}
		reached, arrive, err := g.sendFailover(v, t, at, next, mkMsg, cur.at)
		if err != nil {
			return 0, cur, err
		}
		cur.at = arrive
		cur.hops++
		at = reached
	}
	return 0, cur, ErrRoutingExhausted
}

func (x *chainExec) lookup(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	g := x.g
	hk := g.h.hash(k)
	dest, cur, err := x.routeToward(v, t, from, hk,
		func(p *Peer) bool { return p.Responsible(hk) },
		func() simnet.Message { return lookupMsg{key: k} }, cursor{at: start})
	if err != nil {
		if err = g.degradeReadErr(t, err); err != nil {
			return nil, cur.at, err
		}
		return nil, cur.at, nil
	}
	p := v.peers.at(dest)
	res := p.localPrefix(k)
	if len(res) > 0 || g.cfg.ReplyEmpty {
		arrive, err := g.sendRetrans(t, dest, from,
			func() simnet.Message { return resultMsg{postings: res} }, cur.at)
		if err != nil {
			return res, cur.finish(t), g.degradeReadErr(t, err)
		}
		cur.at = arrive
		cur.hops++
	}
	return res, cur.finish(t), nil
}

func (x *chainExec) multiLookup(v *view, t *metrics.Tally, from simnet.NodeID, hks []hashedKey, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	return x.multiStep(v, t, from, from, hks, 0, cursor{at: start})
}

// multiStep serves the key subset this partition is responsible for and
// forwards the rest into every relevant sibling subtrie. The sibling
// forwards are logically parallel; under the serial fabric they chain —
// the Fanout contract of simnet.Fabric.
func (x *chainExec) multiStep(v *view, t *metrics.Tally, initiator, at simnet.NodeID,
	ks []hashedKey, scope int, cur cursor) ([]triples.Posting, simnet.VTime, error) {

	g := x.g
	p, err := v.peer(at)
	if err != nil {
		return nil, cur.at, err
	}
	var local []triples.Posting
	served := false
	rest := ks[:0:0]
	for _, k := range ks {
		if p.Responsible(k.h) {
			served = true
			local = append(local, p.localPrefix(k.orig)...)
		} else {
			rest = append(rest, k)
		}
	}
	end := cur.at
	var localErr error
	if len(local) > 0 || (g.cfg.ReplyEmpty && served) {
		reply := cur
		arrive, err := g.sendRetrans(t, at, initiator,
			func() simnet.Message { return resultMsg{postings: local} }, reply.at)
		if err != nil {
			localErr = g.degradeReadErr(t, err)
			local = nil
		} else {
			reply.at = arrive
			reply.hops++
			end = reply.finish(t)
		}
	} else if served {
		end = cur.finish(t)
	}

	// Partition the remaining keys over the sibling subtries and pick all
	// forwarding targets before forking; reference picking is deterministic,
	// so branch sets are identical under every execution engine.
	branches, pickErrs := splitMultiBranches(g, v, p, rest, scope)
	for i, e := range pickErrs {
		pickErrs[i] = g.degradeReadErr(t, e)
	}

	results := make([][]triples.Posting, len(branches))
	errs := make([]error, len(branches))
	fanEnd := g.net.Fanout(cur.at, len(branches), func(i int, start simnet.VTime) simnet.VTime {
		b := branches[i]
		reached, arrive, err := g.sendFailover(v, t, at, b.next,
			func() simnet.Message { return multiLookupWire(b.keys) }, start)
		if err != nil {
			errs[i] = g.degradeReadErr(t, err)
			return start
		}
		res, bEnd, err := x.multiStep(v, t, initiator, reached, b.keys, b.level+1,
			cursor{at: arrive, hops: cur.hops + 1})
		results[i] = res
		errs[i] = err
		return bEnd
	})
	if fanEnd > end {
		end = fanEnd
	}

	out := local
	for _, r := range results {
		out = append(out, r...)
	}
	all := append([]error{localErr}, pickErrs...)
	all = append(all, errs...)
	return out, end, errors.Join(all...)
}

// splitMultiBranches partitions the keys this peer is not responsible for
// over the sibling subtries at levels >= scope and picks one live forwarding
// target per nonempty subtrie. Both execution engines share it, so branch
// sets — and therefore routes and hop counts — are identical.
func splitMultiBranches(g *Grid, v *view, p *Peer, rest []hashedKey, scope int) ([]subtrieBranch, []error) {
	var branches []subtrieBranch
	var pickErrs []error
	for l := scope; l < p.path.Len() && len(rest) > 0; l++ {
		sibling := p.path.Prefix(l + 1).FlipLast()
		var subset, keep []hashedKey
		for _, k := range rest {
			if k.h.HasPrefix(sibling) || sibling.HasPrefix(k.h) {
				subset = append(subset, k)
			} else {
				keep = append(keep, k)
			}
		}
		rest = keep
		if len(subset) == 0 {
			continue
		}
		next, err := g.pickRef(v, p, l, routeSalt(sibling))
		if err != nil {
			pickErrs = append(pickErrs, err)
			continue
		}
		branches = append(branches, subtrieBranch{level: l, next: next, keys: subset})
	}
	return branches, pickErrs
}

// multiLookupWire builds the accounted wire message for one multicast branch.
func multiLookupWire(ks []hashedKey) simnet.Message {
	origs := make([]keys.Key, len(ks))
	for j, k := range ks {
		origs[j] = k.orig
	}
	return multiLookupMsg{keys: origs}
}

func (x *chainExec) rangeQuery(v *view, t *metrics.Tally, from simnet.NodeID, iv, ivH keys.Interval, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	dest, cur, err := x.routeToward(v, t, from, ivH.Lo,
		func(p *Peer) bool { return ivH.OverlapsPrefix(p.path) },
		func() simnet.Message { return rangeMsg{iv: iv, filterBytes: opts.FilterBytes} }, cursor{at: start})
	if err != nil {
		return nil, cur.at, err
	}
	return x.showerStep(v, t, from, dest, iv, ivH, 0, opts, cur)
}

// showerStep serves the range locally and forwards it into every overlapping
// sibling subtrie at levels >= scope, which delivers the query to each
// overlapping partition exactly once. iv is the original-space interval
// evaluated against stored keys; ivH is its hashed-space image used for trie
// pruning. Sibling forwards fan out per the fabric's Fanout contract:
// chained under the serial simulator.
func (x *chainExec) showerStep(v *view, t *metrics.Tally, initiator, at simnet.NodeID,
	iv, ivH keys.Interval, scope int, opts RangeOptions, cur cursor) ([]triples.Posting, simnet.VTime, error) {

	g := x.g
	p, err := v.peer(at)
	if err != nil {
		return nil, cur.at, err
	}
	var local []triples.Posting
	end := cur.at
	var localErr error
	if ivH.OverlapsPrefix(p.path) {
		res := p.localRange(iv, opts.Filter)
		if len(res) > 0 || g.cfg.ReplyEmpty {
			reply := cur
			arrive, err := g.sendRetrans(t, at, initiator,
				func() simnet.Message { return resultMsg{postings: res} }, reply.at)
			if err != nil {
				localErr = g.degradeReadErr(t, err)
			} else {
				local = res
				reply.at = arrive
				reply.hops++
				end = reply.finish(t)
			}
		} else {
			// Silence means "no results", but the query still travelled
			// here: fold the forwarding path into the tally.
			end = cur.finish(t)
		}
	}

	branches, pickErrs := splitShowerBranches(g, v, p, ivH, scope)
	for i, e := range pickErrs {
		pickErrs[i] = g.degradeReadErr(t, e)
	}

	results := make([][]triples.Posting, len(branches))
	errs := make([]error, len(branches))
	fanEnd := g.net.Fanout(cur.at, len(branches), func(i int, start simnet.VTime) simnet.VTime {
		b := branches[i]
		reached, arrive, err := g.sendFailover(v, t, at, b.next,
			func() simnet.Message { return rangeMsg{iv: iv, filterBytes: opts.FilterBytes} }, start)
		if err != nil {
			errs[i] = g.degradeReadErr(t, err)
			return start
		}
		res, bEnd, err := x.showerStep(v, t, initiator, reached, iv, ivH, b.level+1, opts,
			cursor{at: arrive, hops: cur.hops + 1})
		results[i] = res
		errs[i] = err
		return bEnd
	})
	if fanEnd > end {
		end = fanEnd
	}

	out := local
	for _, r := range results {
		out = append(out, r...)
	}
	all := append([]error{localErr}, pickErrs...)
	all = append(all, errs...)
	return out, end, errors.Join(all...)
}

// splitShowerBranches picks one live forwarding target for every overlapping
// sibling subtrie at levels >= scope. Shared by both execution engines.
func splitShowerBranches(g *Grid, v *view, p *Peer, ivH keys.Interval, scope int) ([]subtrieBranch, []error) {
	var branches []subtrieBranch
	var pickErrs []error
	for l := scope; l < p.path.Len(); l++ {
		sibling := p.path.Prefix(l + 1).FlipLast()
		if !ivH.OverlapsPrefix(sibling) {
			continue
		}
		next, err := g.pickRef(v, p, l, routeSalt(sibling))
		if err != nil {
			pickErrs = append(pickErrs, err)
			continue
		}
		branches = append(branches, subtrieBranch{level: l, next: next})
	}
	return branches, pickErrs
}

func (x *chainExec) insert(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, posting triples.Posting) error {
	g := x.g
	hk := g.h.hash(k)
	dest, cur, err := x.routeToward(v, t, from, hk,
		func(p *Peer) bool { return p.Responsible(hk) },
		func() simnet.Message { return insertMsg{key: k, posting: posting} }, opStart(t))
	if err != nil {
		return err
	}
	p := v.peers.at(dest)
	g.applyOwnerWrite(v, p, hk, func(q *Peer) bool { q.localPut(k, posting); return true })
	defer g.endWrite()
	end := cur.at
	var errs []error
	for _, r := range p.replicas {
		arrive, err := g.sendRetrans(t, dest, r,
			func() simnet.Message { return replicateMsg{key: k, posting: posting} }, cur.at)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if arrive > end {
			end = arrive
		}
		g.applyReplicaWrite(v, r, hk, func(q *Peer) bool { q.localPut(k, posting); return true })
	}
	t.ObservePath(cur.hops+boolInt64(len(p.replicas) > 0), int64(end))
	return errors.Join(errs...)
}

func (x *chainExec) remove(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, match func(triples.Posting) bool) (bool, error) {
	g := x.g
	hk := g.h.hash(k)
	dest, cur, err := x.routeToward(v, t, from, hk,
		func(p *Peer) bool { return p.Responsible(hk) },
		func() simnet.Message { return deleteMsg{key: k} }, opStart(t))
	if err != nil {
		return false, err
	}
	p := v.peers.at(dest)
	deleted := g.applyOwnerWrite(v, p, hk, func(q *Peer) bool { return q.localDelete(k, match) })
	defer g.endWrite()
	end := cur.at
	var errs []error
	for _, r := range p.replicas {
		arrive, err := g.sendRetrans(t, dest, r,
			func() simnet.Message { return deleteMsg{key: k} }, cur.at)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if arrive > end {
			end = arrive
		}
		g.applyReplicaWrite(v, r, hk, func(q *Peer) bool { return q.localDelete(k, match) })
	}
	t.ObservePath(cur.hops+boolInt64(len(p.replicas) > 0), int64(end))
	return deleted, errors.Join(errs...)
}
