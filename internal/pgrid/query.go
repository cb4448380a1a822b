package pgrid

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// Every query operation loads one membership epoch (Grid.snapshot) at its
// start and threads the view through routing, fan-out and result collection,
// so the whole operation observes a single consistent trie even while Join,
// Leave and RefreshRefs publish new epochs concurrently.
//
// Each operator is a set of per-peer steps (step.go) driven by a pluggable
// executor (see exec.go): the chained executor drives them by direct
// recursion with virtual-time arithmetic (the paper's shared-memory model),
// while the actor executor runs every step and result return as a message
// handler on a discrete-event runtime with per-peer mailboxes and service
// times (actor.go).

// cursor is branch-local virtual time and forwarding depth, threaded through
// routing and fan-out. Sequential hops chain the cursor; parallel branches
// each carry a copy forked at the same time, so the tally's max-folded
// latency follows the critical path.
type cursor struct {
	at   simnet.VTime
	hops int64
}

// opStart positions a fresh operation after everything already observed on
// the tally, so sequential operations sharing a tally chain in virtual time.
func opStart(t *metrics.Tally) cursor {
	return cursor{at: simnet.VTime(t.PathEnd())}
}

// finish folds a completed path into the tally and returns its end time.
func (c cursor) finish(t *metrics.Tally) simnet.VTime {
	t.ObservePath(c.hops, int64(c.at))
	return c.at
}

// routeSalt folds a key into a routing salt so different targets rotate
// through the redundant references.
func routeSalt(k keys.Key) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(k.Len())
	for _, b := range k.Bytes() {
		h = simnet.Splitmix64(h ^ uint64(b))
	}
	return h
}

// pickRef selects a live routing reference of p at level l. The choice is
// randomized across peers, levels and salts (the paper's randomized routing
// keeps expected search cost at 0.5*log N regardless of trie shape) but is a
// pure function of its inputs: no shared RNG state, so concurrent query
// branches stay race-free and a fixed seed yields identical routes under
// either executor. Remaining redundant references serve as fallback when
// peers are down. References tombstoned in the query's own epoch (possible
// only when a whole subtrie was irreparable) are skipped like crashed ones.
//
// With Config.LatencyAwareRefs set and a latency model installed, the live
// candidates are ranked by their expected link delay from p instead: the
// fastest live reference wins, and the salt rotation breaks ties
// deterministically (the first equally-fast candidate in salt order).
func (g *Grid) pickRef(v *view, p *Peer, l int, salt uint64) (simnet.NodeID, error) {
	if l < 0 || l >= len(p.refs) || len(p.refs[l]) == 0 {
		return 0, ErrUnreachable
	}
	refs := p.refs[l]
	h := simnet.Splitmix64(uint64(g.cfg.Seed) ^ salt ^ simnet.Splitmix64(uint64(p.id)<<20|uint64(l)))
	start := int(h % uint64(len(refs)))
	if g.cfg.LatencyAwareRefs {
		if lat := g.net.Latency(); lat != nil {
			best, bestDelay := simnet.NodeID(0), simnet.VTime(0)
			found := false
			for i := 0; i < len(refs); i++ {
				id := refs[(start+i)%len(refs)]
				if !v.member(id) || g.net.IsDown(id) {
					continue
				}
				// Rank by the deterministic per-link expectation for a
				// payload-free probe; strict < keeps the earliest candidate
				// in salt order on ties.
				if d := lat(p.id, id, 0); !found || d < bestDelay {
					best, bestDelay, found = id, d, true
				}
			}
			if found {
				return best, nil
			}
			return 0, ErrUnreachable
		}
	}
	for i := 0; i < len(refs); i++ {
		id := refs[(start+i)%len(refs)]
		if v.member(id) && !g.net.IsDown(id) {
			return id, nil
		}
	}
	return 0, ErrUnreachable
}

// Lookup retrieves all postings whose key extends k (Algorithm 1 semantics:
// {d | key(d) has k as prefix}), routing from the initiating peer to the
// responsible partition and returning results in one message to the
// initiator.
func (g *Grid) Lookup(t *metrics.Tally, from simnet.NodeID, k keys.Key) ([]triples.Posting, error) {
	res, _, err := g.exec.lookup(g.snapshot(), t, from, k, opStart(t).at)
	return res, err
}

// MultiLookupAt retrieves postings for a batch of full-length keys with one
// multicast over the trie instead of one routed lookup per key — the
// optimization Section 4 describes as collecting "the calls to Retrieve() and
// contact[ing] peers only once using a routing algorithm similar to the
// shower algorithm in [6]". Each involved partition receives the subset of
// keys it is responsible for and answers the initiator directly. The
// multicast starts at virtual time start and returns its completion time, so
// callers can fan several operations out from one fork point.
func (g *Grid) MultiLookupAt(t *metrics.Tally, from simnet.NodeID, ks []keys.Key, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	if len(ks) == 0 {
		return nil, start, nil
	}
	return g.exec.multiLookup(g.snapshot(), t, from, g.hashKeys(ks), start)
}

// hashKeys pairs each key with its hashed-space image.
func (g *Grid) hashKeys(ks []keys.Key) []hashedKey {
	hks := make([]hashedKey, len(ks))
	for i, k := range ks {
		hks[i] = hashedKey{orig: k, h: g.h.hash(k)}
	}
	return hks
}

// RangeOptions customizes a range query.
type RangeOptions struct {
	// Filter, if non-nil, is evaluated at each contacted peer; only matching
	// postings travel back to the initiator. This models query predicates
	// shipped with the range query (e.g. the naive similarity scan, which
	// ships the needle string and lets peers "compare the queried string to
	// the data available locally").
	Filter func(triples.Posting) bool
	// FilterBytes is the wire size of the shipped predicate, added to every
	// forwarded range message.
	FilterBytes int
}

// RangeQuery delivers the closed interval iv to every partition overlapping
// it using the shower algorithm of reference [6]: the query is routed to one
// peer inside the range and then trickles down the trie via routing
// references, reaching every overlapping partition exactly once. Results are
// sent directly to the initiator by each contributing peer.
func (g *Grid) RangeQuery(t *metrics.Tally, from simnet.NodeID, iv keys.Interval, opts RangeOptions) ([]triples.Posting, error) {
	res, _, err := g.RangeQueryAt(t, from, iv, opts, opStart(t).at)
	return res, err
}

// errInvalidInterval rejects ranges whose bounds are out of order.
var errInvalidInterval = errors.New("pgrid: invalid interval (Lo after Hi)")

// hashInterval validates a range and maps it to hashed space.
func (g *Grid) hashInterval(iv keys.Interval) (keys.Interval, error) {
	if !iv.Valid() {
		return keys.Interval{}, errInvalidInterval
	}
	return keys.Interval{Lo: g.h.hash(iv.Lo), Hi: g.h.hashHiPrefix(iv.Hi)}, nil
}

// RangeQueryAt is RangeQuery with an explicit virtual start time.
func (g *Grid) RangeQueryAt(t *metrics.Tally, from simnet.NodeID, iv keys.Interval, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	ivH, err := g.hashInterval(iv)
	if err != nil {
		return nil, start, err
	}
	return g.exec.rangeQuery(g.snapshot(), t, from, iv, ivH, opts, start)
}

// PrefixQuery retrieves every posting whose key extends the given prefix,
// visiting all partitions below it (unlike Lookup, which per Algorithm 1
// answers from a single partition). Implemented as a degenerate range query:
// the closed interval [p, p] under the prefix-extension convention spans
// exactly the subtrie of p.
func (g *Grid) PrefixQuery(t *metrics.Tally, from simnet.NodeID, prefix keys.Key, opts RangeOptions) ([]triples.Posting, error) {
	return g.RangeQuery(t, from, keys.Interval{Lo: prefix, Hi: prefix}, opts)
}

// PrefixQueryAt is PrefixQuery with an explicit virtual start time.
func (g *Grid) PrefixQueryAt(t *metrics.Tally, from simnet.NodeID, prefix keys.Key, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	return g.RangeQueryAt(t, from, keys.Interval{Lo: prefix, Hi: prefix}, opts, start)
}

// Insert routes a posting from the initiating peer to the responsible
// partition and replicates it to the partition's structural replicas. Every
// hop and every replica update costs one message; replica pushes depart
// together from the responsible peer.
func (g *Grid) Insert(t *metrics.Tally, from simnet.NodeID, k keys.Key, posting triples.Posting) error {
	_, err := g.exec.write(g.snapshot(), t, from, &write{key: k, hk: g.h.hash(k), posting: posting})
	return err
}

func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// DeletePosting routes a deletion to the responsible partition and removes
// posting p under key k there and at its replicas; each store descends to
// the posting instead of scanning the key's run. It reports whether anything
// was deleted.
func (g *Grid) DeletePosting(t *metrics.Tally, from simnet.NodeID, k keys.Key, p triples.Posting) (bool, error) {
	return g.exec.write(g.snapshot(), t, from, &write{key: k, hk: g.h.hash(k), rm: &removal{posting: p}})
}

// Delete is DeletePosting for the first posting under k that match accepts
// (nil accepts any). The same routed remove resolves match at the owner with
// a read-only scan of the key's run and then removes that one posting there
// and at the replicas. It reports whether anything was deleted.
func (g *Grid) Delete(t *metrics.Tally, from simnet.NodeID, k keys.Key, match func(triples.Posting) bool) (bool, error) {
	if match == nil {
		match = func(triples.Posting) bool { return true }
	}
	return g.exec.write(g.snapshot(), t, from, &write{key: k, hk: g.h.hash(k), rm: &removal{match: match}})
}
