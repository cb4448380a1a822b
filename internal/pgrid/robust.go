package pgrid

// Robustness layer for lossy, churning overlays.
//
// Three mechanisms, all off by default so the fault-free cross-executor
// oracle keeps comparing byte-identical runs:
//
//   - Retransmission: a wire send that the fabric's fault plan drops
//     (simnet.ErrLinkLoss) is repeated to the same target after an
//     exponential virtual-time backoff, up to RetryConfig.MaxAttempts.
//   - Replica failover: a target that is unreachable (crashed, departed) is
//     replaced by a structural replica from the operation's epoch snapshot.
//     Replicas share the owner's full trie path, so any of them is
//     routing-equivalent at that hop — the redundancy the paper attributes
//     P-Grid's fault tolerance to.
//   - Degraded reads: a query branch that stays unanswered after retries and
//     failovers are exhausted no longer fails the whole query; the query
//     returns the results it could gather and the silence is tallied
//     (metrics.Tally.Unanswered), so callers — and the result cache — can
//     tell a complete answer from a degraded one. Writes always surface
//     their errors.
//
// Write fencing (applyOwnerWrite/applyReplicaWrite) is related but always
// on: it closes the documented epoch-snapshot gap where an insert or delete
// racing a membership change of the same partition could land in a store the
// new epoch no longer reads, or apply twice through diverged replica lists.

import (
	"errors"
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// RetryConfig tunes the robustness layer. The zero value disables it; a
// config with Enabled set and zero numeric fields uses the defaults below.
type RetryConfig struct {
	// Enabled turns on retransmission, replica failover and degraded reads.
	Enabled bool
	// MaxAttempts bounds the total send attempts of one wire message,
	// retransmissions and failovers combined (default 4).
	MaxAttempts int
	// Backoff is the virtual-time delay before the first retransmission of a
	// lost message, doubling on each further one (default 8). Failover to a
	// replica is immediate: the target is known-unreachable, waiting cannot
	// help.
	Backoff simnet.VTime
}

const (
	defaultRetryAttempts = 4
	defaultRetryBackoff  = simnet.VTime(8)
)

// RobustStats reports the grid's cumulative robustness counters.
type RobustStats struct {
	// Retries counts retransmissions of wire messages lost in transit.
	Retries int64
	// Failovers counts sends redirected to a structural replica after the
	// original target was unreachable.
	Failovers int64
	// Unanswered counts read branches degraded to silence after the retry
	// policy was exhausted.
	Unanswered int64
	// FencedWrites counts writes that raced a membership change of their
	// partition and were redirected (or suppressed) to the current epoch's
	// owners instead of being lost or duplicated.
	FencedWrites int64
}

// RobustStats returns the grid's cumulative robustness counters.
func (g *Grid) RobustStats() RobustStats {
	return RobustStats{
		Retries:      atomic.LoadInt64(&g.retries),
		Failovers:    atomic.LoadInt64(&g.failovers),
		Unanswered:   atomic.LoadInt64(&g.unanswered),
		FencedWrites: atomic.LoadInt64(&g.fencedWrites),
	}
}

// sendFailover sends one wire message under the grid's retry policy: losses
// are retransmitted to the same target with exponential backoff, and an
// unreachable target is replaced by a structural replica from the
// operation's epoch. It returns the node actually reached and the arrival
// time there; callers must continue the operation at the reached node, which
// may differ from to. With the policy disabled this is exactly one SendTimed.
func (g *Grid) sendFailover(v *view, t *metrics.Tally, from, to simnet.NodeID,
	mk func() simnet.Message, depart simnet.VTime) (simnet.NodeID, simnet.VTime, error) {

	arrive, err := g.net.SendTimed(t, from, to, mk(), depart)
	if err == nil || !g.cfg.Retry.Enabled {
		return to, arrive, err
	}
	return g.resend(v, t, from, to, mk, depart, err, true)
}

// sendRetrans sends one wire message with retransmission only: the
// destination is fixed (a result leg back to the initiator, a replica push
// to a specific member), so losses are retried but unreachability is final.
func (g *Grid) sendRetrans(t *metrics.Tally, from, to simnet.NodeID,
	mk func() simnet.Message, depart simnet.VTime) (simnet.VTime, error) {

	arrive, err := g.net.SendTimed(t, from, to, mk(), depart)
	if err == nil || !g.cfg.Retry.Enabled {
		return arrive, err
	}
	_, arrive, err = g.resend(nil, t, from, to, mk, depart, err, false)
	return arrive, err
}

// resend is the shared retry loop behind sendFailover and sendRetrans. The
// first attempt has already failed with firstErr; the loop spends the
// remaining attempts retransmitting on loss and — when failover is set —
// advancing through the target's live replicas on any other error.
func (g *Grid) resend(v *view, t *metrics.Tally, from, to simnet.NodeID,
	mk func() simnet.Message, depart simnet.VTime, firstErr error, failover bool) (simnet.NodeID, simnet.VTime, error) {

	maxAttempts := g.cfg.Retry.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = defaultRetryAttempts
	}
	backoff := g.cfg.Retry.Backoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	var candidates []simnet.NodeID
	if failover {
		if p, err := v.peer(to); err == nil {
			candidates = p.replicas
		}
	}
	target, ci := to, 0
	err := firstErr
	for attempt := 1; attempt < maxAttempts; attempt++ {
		switch {
		case errors.Is(err, simnet.ErrLinkLoss):
			// Lost in transit: the target itself is fine, wait out the burst
			// and retransmit.
			depart += backoff
			backoff *= 2
			t.AddRetry()
			atomic.AddInt64(&g.retries, 1)
		case failover:
			// Target unreachable: immediately try the next live replica of
			// the same partition (routing-equivalent by construction).
			next, ok := nextLiveCandidate(g, candidates, &ci)
			if !ok {
				return 0, depart, err
			}
			target = next
			t.AddFailover()
			atomic.AddInt64(&g.failovers, 1)
		default:
			return 0, depart, err
		}
		var arrive simnet.VTime
		arrive, err = g.net.SendTimed(t, from, target, mk(), depart)
		if err == nil {
			return target, arrive, nil
		}
	}
	return 0, depart, err
}

// nextLiveCandidate advances *ci through candidates, skipping peers the
// fabric reports down, and returns the next one to try. Iteration order is
// the epoch's replica order, so failover targets are deterministic.
func nextLiveCandidate(g *Grid, candidates []simnet.NodeID, ci *int) (simnet.NodeID, bool) {
	for *ci < len(candidates) {
		id := candidates[*ci]
		*ci++
		if !g.net.IsDown(id) {
			return id, true
		}
	}
	return 0, false
}

// degradeReadErr absorbs a read-branch failure as an unanswered probe when
// the retry policy is enabled: the query keeps its partial results and the
// silence is tallied instead of failing the operation. With the policy
// disabled (or no error) the error passes through unchanged.
func (g *Grid) degradeReadErr(t *metrics.Tally, err error) error {
	if err == nil || !g.cfg.Retry.Enabled {
		return err
	}
	t.AddUnanswered()
	atomic.AddInt64(&g.unanswered, 1)
	return nil
}

// --- write fencing ---

// endWrite closes a routed write's apply phase, opened by applyOwnerWrite:
// every replica push has been applied (or definitively failed), so a
// membership move waiting to snapshot the partition may proceed.
func (g *Grid) endWrite() {
	g.memberMu.Lock()
	g.pendingWrites--
	if g.pendingWrites == 0 {
		g.writeDrained.Broadcast()
	}
	g.memberMu.Unlock()
}

// waitWritesLocked blocks a membership move until no routed write is mid-way
// between its owner apply and its last replica apply. Callers hold memberMu.
// Without this drain a join's handover could copy a partition member that
// has not yet received an in-flight replica push, leaving the newcomer
// permanently short one posting. How the wait makes progress is the
// executor's business: chained writes complete on their own goroutines (a
// plain condition wait suffices), while actor-mode applies are heap events
// the waiter may have to step itself.
func (g *Grid) waitWritesLocked() {
	g.exec.awaitWriteDrain()
}

// applyOwnerWrite lands a routed write at the peer the routing loop stopped
// at, fenced against membership changes that raced the routing: if the
// epoch moved since the operation snapshotted its view, the write is
// redirected to the current epoch's owners of the key so it is neither lost
// in a store the new epoch no longer reads (a racing split handed the data
// over) nor missing from members that joined meanwhile. apply returns
// whether it changed anything (deletes); the result is OR-ed across every
// store the fence touches.
//
// The fence serializes on memberMu — the same lock membership changes hold
// while they snapshot stores for handover — so a write is always either
// fully before a handover (and travels with it) or fully after (and is
// redirected here). p's structural replicas are NOT written: each gets its
// own replica push, fenced individually by applyReplicaWrite.
func (g *Grid) applyOwnerWrite(v *view, p *Peer, hk keys.Key, apply func(*Peer) bool) bool {
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	// Open the write's apply phase: membership moves drain it (see
	// waitWritesLocked) before snapshotting stores. Callers close it with
	// endWrite once every replica push has landed.
	g.pendingWrites++
	cur := g.cur.Load()
	if cur.epoch == v.epoch {
		return apply(p)
	}
	li := cur.leafForHashed(hk)
	if li < 0 {
		// No current partition covers the key — impossible on a complete
		// trie; write to the op's own epoch rather than dropping data.
		return apply(p)
	}
	covered := func(id simnet.NodeID) bool {
		if id == p.id {
			return true
		}
		for _, r := range p.replicas {
			if r == id {
				return true
			}
		}
		return false
	}
	applied, ownerStillThere, fenced := false, false, false
	for _, id := range cur.leaves.at(li).peers {
		q := cur.peers.at(id)
		switch {
		case id == p.id:
			// Still an owner; write through the current version, whose store
			// may have been swapped by a split since the op routed here.
			ownerStillThere = true
			if q.store != p.store {
				fenced = true
			}
			if apply(q) {
				applied = true
			}
		case covered(id):
			// An op-view replica: its own replica push applies (and is
			// fenced) separately — writing here too would duplicate.
		default:
			// Joined the partition after the op snapshotted: redirect so the
			// current epoch's readers find the write.
			if apply(q) {
				applied = true
			}
			fenced = true
		}
	}
	if !ownerStillThere {
		// The routed-to owner departed or split away; the redirects above
		// carry the write for the current epoch.
		fenced = true
	}
	if fenced {
		atomic.AddInt64(&g.fencedWrites, 1)
	}
	return applied
}

// applyReplicaWrite lands one replica push at dst, fenced: when the epoch
// moved and dst no longer belongs to the partition responsible for the key,
// the push is suppressed — the owner-side fence already redirected the write
// to the current members, so applying here would duplicate or strand it.
func (g *Grid) applyReplicaWrite(v *view, dst simnet.NodeID, hk keys.Key, apply func(*Peer) bool) bool {
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	cur := g.cur.Load()
	if cur.epoch == v.epoch {
		if p, err := v.peer(dst); err == nil {
			return apply(p)
		}
		return false
	}
	if li := cur.leafForHashed(hk); li >= 0 {
		for _, id := range cur.leaves.at(li).peers {
			if id == dst {
				return apply(cur.peers.at(id))
			}
		}
	}
	atomic.AddInt64(&g.fencedWrites, 1)
	return false
}
