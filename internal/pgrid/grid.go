// Package pgrid implements the P-Grid structured overlay (Aberer et al.) that
// the paper builds its similarity operators on.
//
// Peers refer to a common underlying binary trie: each peer p is associated
// with a leaf of the trie, a key-space partition identified by the binary
// string pi(p), the peer's path. For every prefix pi(p,l) of its path the
// peer keeps references rho(p,l) to peers in the complementary subtrie
// (pi(p,l) with the last bit inverted), which enables prefix routing in
// O(log N) messages (Algorithm 1 of the paper). Multiple peers may share one
// partition (structural replication).
//
// The construction algorithm reproduces the storage balancing of Aberer et
// al. (VLDB 2005, reference [2]): the trie is split greedily on the densest
// partitions of a key sample, so each leaf carries a roughly equal share of
// the data regardless of key skew — the property Section 6 of the paper
// relies on ("we achieve a reasonable uniform distribution of data items
// among peers regardless of the actual data distribution").
//
// Structural state is published in immutable epochs (see epoch.go): queries
// snapshot one epoch and run against it, while Join, Leave and RefreshRefs
// build and atomically publish the next one. Structural churn is therefore
// safe concurrently with queries on both the serial and the concurrent
// fabric.
package pgrid

import (
	"container/heap"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// Config controls grid construction and query behaviour.
type Config struct {
	// Replication is the target number of peers per key-space partition
	// (structural replication). The number of partitions is approximately
	// Peers/Replication.
	Replication int
	// RefsPerLevel is the number of redundant routing references kept per
	// trie level (the paper's "randomized choice of routing references from
	// the complementary subtrie" plus redundancy for fault tolerance).
	RefsPerLevel int
	// Seed drives all randomized choices (construction shuffles and routing
	// reference selection), making experiments reproducible.
	Seed int64
	// Exec selects the query execution engine: chained virtual-time calls
	// (ExecChain, the default) or discrete-event actors with per-peer
	// mailboxes and service times (ExecActor). Routing, results and hop
	// counts are identical for the same seed; only the latency model
	// differs.
	Exec ExecMode
	// Service is each peer's virtual per-message service time in actor
	// mode; 0 makes processing instantaneous, so actor latency is exactly
	// the critical path of the operation's logically parallel branches.
	Service simnet.VTime
	// ServiceRate, when positive, scales actor-mode service times with
	// message size: a message of s bytes costs s/ServiceRate (bytes per
	// virtual second) on top of Service, so bulk transfers congest peers
	// the way they congest links under a bandwidth-limited latency model.
	ServiceRate int64
	// LatencyAwareRefs makes pickRef prefer the live routing reference with
	// the lowest expected link latency (deterministic salt tie-break)
	// instead of the salt-rotated hashed choice. Requires a latency model
	// on the fabric; without one the hashed path is kept, as it is by
	// default, so seeded route determinism is opt-out only.
	LatencyAwareRefs bool
	// LoadWorkers bounds the goroutines the balancing-sample sort in Build
	// may use. <= 1 keeps that sort serial. The sorted outcome is identical
	// for any value.
	LoadWorkers int
	// Retry enables the robustness layer (see robust.go): wire sends lost in
	// transit are retransmitted with exponential virtual-time backoff,
	// unreachable targets fail over to structural replicas, and read
	// branches that stay unanswered degrade the query to partial results
	// instead of failing it. Off by default so the fault-free
	// cross-executor oracle compares byte-identical runs.
	Retry RetryConfig
}

// maxTrieDepth caps trie depth during construction.
const maxTrieDepth = 64

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Replication:  1,
		RefsPerLevel: 2,
		Seed:         1,
	}
}

func (c *Config) normalize() {
	if c.Replication < 1 {
		c.Replication = 1
	}
	if c.RefsPerLevel < 1 {
		c.RefsPerLevel = 1
	}
}

// peerStore is the mutable local store of one logical peer. It is shared by
// every epoch version of that peer (so runtime inserts are visible across
// epochs) and replaced wholesale when data ownership changes (partition
// split, replica handover) — old epochs then keep reading the previous
// owner's untouched store.
type peerStore struct {
	mu sync.RWMutex
	t  *btree.Tree[triples.Posting, *triples.Posting]
}

// newPeerStore materializes a store from a snapshot (empty snapshot = empty
// store). Snapshots are taken by walking a store in key order, so the tree is
// built bottom-up at bulk occupancy: ascending inserts would leave every leaf
// half empty in a full-capacity slice, nearly four times the bytes per
// handed-over partition.
func newPeerStore(s postingSet) *peerStore {
	t := btree.New[triples.Posting]()
	t.BulkLoadSorted(s.keys, s.postings)
	return &peerStore{t: t}
}

// Peer is one simulated node: a trie leaf assignment, a routing table, and a
// local ordered store of postings. A Peer value is immutable once its epoch
// is published — membership changes produce new versions via cloneForEpoch —
// except for the store contents, which are guarded by the shared peerStore.
type Peer struct {
	id   simnet.NodeID
	path keys.Key
	// refs[l] holds routing references into the complementary subtrie at
	// level l, i.e. peers q with pi(q, l+1) = pi(p, l+1) with last bit
	// inverted.
	refs [][]simnet.NodeID
	// replicas are the other peers responsible for the same partition
	// (sigma(p) in the paper).
	replicas []simnet.NodeID

	store *peerStore
}

// ID returns the peer's node id.
func (p *Peer) ID() simnet.NodeID { return p.id }

// Path returns the peer's trie path pi(p).
func (p *Peer) Path() keys.Key { return p.path }

// Replicas returns the other peers sharing this peer's partition.
func (p *Peer) Replicas() []simnet.NodeID { return p.replicas }

// Responsible reports whether the peer's partition can hold data for key k:
// pi(p) is a prefix of k, or k is a (strict) prefix of pi(p) — the test of
// Algorithm 1, line 1.
func (p *Peer) Responsible(k keys.Key) bool {
	return k.HasPrefix(p.path) || p.path.HasPrefix(k)
}

// StoreLen reports the number of postings held locally.
func (p *Peer) StoreLen() int {
	p.store.mu.RLock()
	defer p.store.mu.RUnlock()
	return p.store.t.Len()
}

func (p *Peer) localPut(k keys.Key, posting triples.Posting) {
	p.store.mu.Lock()
	defer p.store.mu.Unlock()
	p.store.t.Insert(k, posting)
}

// localMergeSorted merges a (key, posting)-sorted batch, read through at,
// into the store under one store lock. The merge rebuilds the tree bottom-up
// (on an empty store it is the plain bottom-up build), so the store comes out
// at bulk occupancy however small the batch is relative to it. Replicas of a
// partition are handed the same closure over the shared shard, so the batch
// is never copied per replica.
func (p *Peer) localMergeSorted(n int, at func(int) (keys.Key, triples.Posting)) {
	p.store.mu.Lock()
	defer p.store.mu.Unlock()
	p.store.t.MergeSorted(n, at)
}

// removal names the posting a routed remove takes out under its key: posting
// itself, or — while match is set — the first posting under the key that
// match accepts. The first store holding such a posting resolves it (the
// owner, which the remove reaches first); from then on the remove takes out
// that exact posting there and at every replica. Stores apply a remove under
// the grid's memberMu (see applyOwnerWrite), which serializes the resolve.
type removal struct {
	posting triples.Posting
	match   func(triples.Posting) bool
}

// localRemove applies a routed remove to the peer's store. The removal
// itself descends to its posting; only resolving a match reads the key's
// run, and only until the first accepted posting.
func (p *Peer) localRemove(k keys.Key, r *removal) bool {
	p.store.mu.Lock()
	defer p.store.mu.Unlock()
	if r.match != nil {
		found := false
		p.store.t.AscendGreaterOrEqual(k, func(key keys.Key, v triples.Posting) bool {
			if !key.Equal(k) {
				return false
			}
			found = r.match(v)
			if found {
				r.posting = v
			}
			return !found
		})
		if !found {
			return false
		}
		r.match = nil
	}
	return p.store.t.Delete(k, r.posting)
}

// LocalPrefix returns the peer's local postings whose key extends k, without
// any network cost. Operators use it where the paper reads local state, e.g.
// the data-density estimate of Algorithm 4 (lines 1-2).
func (p *Peer) LocalPrefix(k keys.Key) []triples.Posting { return p.localPrefix(k) }

// localPrefix returns postings whose key extends k (Algorithm 1, line 2:
// {d in delta(p) | key(d) contains key as prefix}).
func (p *Peer) localPrefix(k keys.Key) []triples.Posting {
	p.store.mu.RLock()
	defer p.store.mu.RUnlock()
	var out []triples.Posting
	p.store.t.AscendPrefix(k, func(_ keys.Key, v triples.Posting) bool {
		out = append(out, v)
		return true
	})
	return out
}

// postingSet is a materialized snapshot of stored entries, used during
// membership changes (data handover).
type postingSet struct {
	keys     []keys.Key
	postings []triples.Posting
	size     int
}

// allPostings snapshots the peer's whole store.
func (p *Peer) allPostings() postingSet {
	p.store.mu.RLock()
	defer p.store.mu.RUnlock()
	var s postingSet
	p.store.t.Ascend(func(k keys.Key, v triples.Posting) bool {
		s.keys = append(s.keys, k)
		s.postings = append(s.postings, v)
		s.size++
		return true
	})
	return s
}

// partitionByHashedBit splits the peer's store by the given bit of the hashed
// key: entries with the bit set form `moved` (the 1-side a splitting joiner
// takes over), the rest `kept`.
func (p *Peer) partitionByHashedBit(h *hasher, level int) (moved, kept postingSet) {
	p.store.mu.RLock()
	defer p.store.mu.RUnlock()
	p.store.t.Ascend(func(k keys.Key, v triples.Posting) bool {
		hk := h.hash(k)
		dst := &kept
		if hk.Len() > level && hk.Bit(level) == 1 {
			dst = &moved
		}
		dst.keys = append(dst.keys, k)
		dst.postings = append(dst.postings, v)
		dst.size++
		return true
	})
	return moved, kept
}

// localRange returns postings inside the interval, optionally filtered.
func (p *Peer) localRange(iv keys.Interval, filter func(triples.Posting) bool) []triples.Posting {
	p.store.mu.RLock()
	defer p.store.mu.RUnlock()
	var out []triples.Posting
	p.store.t.AscendRange(iv, func(_ keys.Key, v triples.Posting) bool {
		if filter == nil || filter(v) {
			out = append(out, v)
		}
		return true
	})
	return out
}

// leafInfo describes one key-space partition.
type leafInfo struct {
	path  keys.Key // prefix in hashed (rank) space
	peers []simnet.NodeID
	items int // construction-sample item count, for stats
}

// hasher is the order-preserving hash function calibrated against the data
// distribution, as P-Grid's construction prescribes (Aberer et al., VLDB
// 2005, reference [2]: "indexing data-oriented overlay networks"). A key maps
// to its rank among the sorted distinct sample keys, rendered as a fixed-width
// bit string. The mapping is monotone, so range and prefix locality carry
// over to hashed space, and it is distribution-calibrated, so the trie over
// hashed space balances regardless of key skew — the property Section 6 of
// the paper relies on. Keys between anchors share a rank; peers disambiguate
// locally because their stores are keyed by original keys.
type hasher struct {
	anchors []keys.Key // sorted, distinct
	width   int        // output bits
}

func newHasher(sortedSample []keys.Key) *hasher {
	anchors := make([]keys.Key, 0, len(sortedSample))
	for i, k := range sortedSample {
		if i == 0 || !k.Equal(sortedSample[i-1]) {
			anchors = append(anchors, k)
		}
	}
	width := 1
	for (1 << uint(width)) <= len(anchors)+1 {
		width++
	}
	return &hasher{anchors: anchors, width: width}
}

// rankKey renders rank as a big-endian key of h.width bits in one allocation
// (hashing runs once per posting during bulk load and once per key on every
// routed operation, so bit-by-bit construction was a measured hot spot).
func (h *hasher) rankKey(rank int) keys.Key {
	var buf [8]byte
	shifted := uint64(rank) << uint(64-h.width)
	for i := 0; i < 8; i++ {
		buf[i] = byte(shifted >> (56 - 8*uint(i)))
	}
	return keys.FromPackedBits(buf[:], h.width)
}

// rank maps a key to |{anchors <= k}|, the integer the rank key renders.
func (h *hasher) rank(k keys.Key) int {
	return sort.Search(len(h.anchors), func(i int) bool {
		return h.anchors[i].Compare(k) > 0
	})
}

// advanceRank returns the rank of k given a cursor already at the rank of
// some key <= k. Callers walking keys in ascending order (the bulk-load and
// construction merge passes) get |{anchors <= k}| with one overall linear
// sweep of the anchors instead of a binary search per key; rank and
// advanceRank must agree, so "anchor <= key" is defined here and in rank
// only.
func (h *hasher) advanceRank(rank int, k keys.Key) int {
	for rank < len(h.anchors) && h.anchors[rank].Compare(k) <= 0 {
		rank++
	}
	return rank
}

// ranks reports the size of the rank space: every key hashes to a rank in
// [0, ranks).
func (h *hasher) ranks() int { return len(h.anchors) + 1 }

// hash maps a key to the rank key of |{anchors <= k}|. Monotone: a <= b
// implies hash(a) <= hash(b).
func (h *hasher) hash(k keys.Key) keys.Key {
	return h.rankKey(h.rank(k))
}

// hashHiPrefix maps the upper bound of an interval, counting anchors that are
// <= k or extend k, matching the prefix-extension convention of
// keys.Interval: every original key inside [lo, hi] hashes into
// [hash(lo), hashHiPrefix(hi)].
func (h *hasher) hashHiPrefix(k keys.Key) keys.Key {
	n := sort.Search(len(h.anchors), func(i int) bool {
		a := h.anchors[i]
		return a.Compare(k) > 0 && !a.HasPrefix(k)
	})
	return h.rankKey(n)
}

// Grid is a fully constructed P-Grid overlay. The net field is the sending
// surface (simnet.Fabric): the synchronous shared-memory simulator, or a
// test's stand-in for it.
//
// Membership state lives in an atomically published epoch (see epoch.go):
// queries are safe concurrently with Join, Leave and RefreshRefs.
type Grid struct {
	net  simnet.Fabric
	cfg  Config
	h    *hasher
	exec executor

	// cur is the published membership epoch read by every query.
	cur atomic.Pointer[view]
	// memberMu serializes epoch builders (Join, Leave, RefreshRefs).
	memberMu sync.Mutex
	// pendingWrites counts routed writes between their fenced owner apply
	// and their last replica apply; Join and Leave drain it before moving
	// data so a handover never snapshots a partition member that is still
	// missing an in-flight replica push. Guarded by memberMu; writeDrained
	// is signalled by endWrite when the count returns to zero.
	pendingWrites int
	writeDrained  *sync.Cond

	rngMu sync.Mutex
	rng   *rand.Rand

	// refBy is the reverse routing index: refBy[target] lists peers whose
	// routing tables may reference target. It is a superset — entries go
	// stale when a table is repaired away from a target — and every
	// candidate is re-validated against its actual table before repair, so
	// staleness costs only the check. Guarded by memberMu. It turns Leave's
	// reference repair from a full O(peers) table sweep into a visit of the
	// O(log peers) actual referrers.
	refBy map[simnet.NodeID][]simnet.NodeID

	// Cumulative robustness counters (atomic; see robust.go).
	retries, failovers, unanswered, fencedWrites int64
}

// Errors returned by grid operations.
var (
	ErrNoPeers          = errors.New("pgrid: grid needs at least one peer")
	ErrUnreachable      = errors.New("pgrid: partition unreachable (all routes down)")
	ErrRoutingExhausted = errors.New("pgrid: routing did not converge")
)

// Build constructs a grid of nPeers peers over the given network fabric.
// sample is a representative multiset of the keys the grid will store; the
// trie is balanced against it. The network must have capacity for nPeers
// nodes.
func Build(net simnet.Fabric, nPeers int, sample []keys.Key, cfg Config) (*Grid, error) {
	cfg.normalize()
	if nPeers < 1 {
		return nil, ErrNoPeers
	}
	if net.Size() < nPeers {
		net.Grow(nPeers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sorted := make([]keys.Key, len(sample))
	copy(sorted, sample)
	sortKeysParallel(sorted, cfg.LoadWorkers)

	h := newHasher(sorted)
	// A monotone hash keeps the sorted order, so the hashed sample is sorted —
	// and because the anchors come from this very slice, ranks follow from a
	// linear merge (no per-key binary search), with equal keys sharing both
	// rank and rank key.
	hashed := make([]keys.Key, len(sorted))
	rank := 0
	for i, k := range sorted {
		next := h.advanceRank(rank, k)
		if i > 0 && next == rank {
			hashed[i] = hashed[i-1]
		} else {
			hashed[i] = h.rankKey(next)
		}
		rank = next
	}

	targetLeaves := nPeers / cfg.Replication
	if targetLeaves < 1 {
		targetLeaves = 1
	}
	leafPaths := splitTrie(hashed, targetLeaves)

	g := &Grid{net: net, cfg: cfg, h: h, rng: rng}
	g.writeDrained = sync.NewCond(&g.memberMu)
	g.refBy = make(map[simnet.NodeID][]simnet.NodeID)
	if cfg.Exec == ExecActor {
		g.exec = newActorExec(g)
	} else {
		g.exec = &chainExec{g: g}
	}
	leaves := make([]leafInfo, len(leafPaths))
	for i, lp := range leafPaths {
		leaves[i] = leafInfo{path: lp.path, items: lp.hi - lp.lo}
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].path.Less(leaves[j].path) })

	peers := assignPeers(leaves, nPeers, rng)
	v := &view{peers: newPeerTable(peers), leaves: newLeafTable(leaves)}
	g.buildRoutingTables(v, rng)
	g.publish(v)
	for id := 0; id < v.peers.len(); id++ {
		g.exec.attach(simnet.NodeID(id))
	}
	return g, nil
}

// buildLeaf is a leaf under construction: a path plus the half-open range of
// the sorted sample it covers.
type buildLeaf struct {
	path   keys.Key
	lo, hi int
}

// leafHeap orders build leaves by descending item count so the densest
// partition splits first.
type leafHeap []buildLeaf

func (h leafHeap) Len() int           { return len(h) }
func (h leafHeap) Less(i, j int) bool { return h[i].hi-h[i].lo > h[j].hi-h[j].lo }
func (h leafHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x any)        { *h = append(*h, x.(buildLeaf)) }
func (h *leafHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h leafHeap) peekCount() int     { return h[0].hi - h[0].lo }

// splitTrie greedily splits the densest leaf until the target leaf count is
// reached or no leaf can split further (all keys equal, or depth cap). Every
// split creates both children so the trie stays complete: search can always
// make progress toward any key (Section 2: "the algorithm always terminates
// successfully, if the P-Grid is complete").
func splitTrie(sorted []keys.Key, target int) []buildLeaf {
	var done []buildLeaf
	h := &leafHeap{{path: keys.Empty, lo: 0, hi: len(sorted)}}
	for len(done)+h.Len() < target && h.Len() > 0 {
		leaf := heap.Pop(h).(buildLeaf)
		if !splittable(sorted, leaf) {
			done = append(done, leaf)
			continue
		}
		level := leaf.path.Len()
		mid := leaf.lo + sort.Search(leaf.hi-leaf.lo, func(i int) bool {
			k := sorted[leaf.lo+i]
			return k.Len() > level && k.Bit(level) == 1
		})
		heap.Push(h, buildLeaf{path: leaf.path.AppendBit(0), lo: leaf.lo, hi: mid})
		heap.Push(h, buildLeaf{path: leaf.path.AppendBit(1), lo: mid, hi: leaf.hi})
	}
	done = append(done, *h...)
	// The greedy loop may stop with only unsplittable leaves left on the
	// heap while some heap leaves were splittable; the loop above already
	// handles that by re-pushing. Nothing further to do.
	return done
}

// splittable reports whether a leaf can still be divided: below the depth
// cap, holding at least one item, and not all keys equal.
func splittable(sorted []keys.Key, l buildLeaf) bool {
	if l.path.Len() >= maxTrieDepth || l.hi-l.lo < 2 {
		return false
	}
	return !sorted[l.lo].Equal(sorted[l.hi-1])
}

// assignPeers distributes nPeers over the sorted leaf list under
// construction: one peer per leaf first (the trie must stay complete), then
// the remainder proportionally to each leaf's data share (hot partitions get
// more structural replicas). It fills leaves[li].peers in place and returns
// the dense peer slice.
func assignPeers(leaves []leafInfo, nPeers int, rng *rand.Rand) []*Peer {
	ids := rng.Perm(nPeers)
	counts := make([]int, len(leaves))
	total := 0
	for i := range leaves {
		counts[i] = 1
		total += leaves[i].items
	}
	extra := nPeers - len(leaves)
	if extra > 0 && total > 0 {
		assigned := 0
		for i := range leaves {
			share := extra * leaves[i].items / total
			counts[i] += share
			assigned += share
		}
		// Distribute the remainder round-robin over the densest leaves.
		order := make([]int, len(leaves))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return leaves[order[a]].items > leaves[order[b]].items
		})
		for i := 0; assigned < extra; i = (i + 1) % len(order) {
			counts[order[i]]++
			assigned++
		}
	} else if extra > 0 {
		// No sample data: spread evenly.
		for i := 0; extra > 0; i = (i + 1) % len(leaves) {
			counts[i]++
			extra--
		}
	}

	peers := make([]*Peer, nPeers)
	next := 0
	for li := range leaves {
		for c := 0; c < counts[li]; c++ {
			id := simnet.NodeID(ids[next])
			next++
			p := &Peer{id: id, path: leaves[li].path, store: newPeerStore(postingSet{})}
			peers[id] = p
			leaves[li].peers = append(leaves[li].peers, id)
		}
	}
	for li := range leaves {
		members := leaves[li].peers
		for _, id := range members {
			p := peers[id]
			for _, other := range members {
				if other != id {
					p.replicas = append(p.replicas, other)
				}
			}
		}
	}
	return peers
}

// buildRoutingTables fills rho(p, l) for every peer: RefsPerLevel random
// peers from the complementary subtrie at each level of the peer's path.
func (g *Grid) buildRoutingTables(v *view, rng *rand.Rand) {
	v.peers.forEach(func(_ simnet.NodeID, p *Peer) {
		p.refs = make([][]simnet.NodeID, p.path.Len())
		for l := 0; l < p.path.Len(); l++ {
			sibling := p.path.Prefix(l + 1).FlipLast()
			lo, hi := v.leafRange(sibling)
			if lo >= hi {
				// Cannot happen in a complete trie; keep the level empty
				// rather than panicking so a corrupted build surfaces as
				// ErrUnreachable at query time.
				continue
			}
			seen := make(map[simnet.NodeID]bool)
			want := g.cfg.RefsPerLevel
			for attempt := 0; attempt < want*4 && len(p.refs[l]) < want; attempt++ {
				leaf := v.leaves.at(lo + rng.Intn(hi-lo))
				id := leaf.peers[rng.Intn(len(leaf.peers))]
				if !seen[id] {
					seen[id] = true
					p.refs[l] = append(p.refs[l], id)
					g.noteRef(id, p.id)
				}
			}
		}
	})
}

// RefreshRefs replaces routing references that point at dead peers (crashed,
// or departed in the current epoch) with live peers from the same
// complementary subtrie, modelling the continuous routing-table maintenance
// of a self-organizing P-Grid (the redundancy that keeps "the expected search
// cost ... logarithmic" under churn). The repair is built as a new epoch and
// published atomically, so it is safe while queries run. It returns the
// number of reference levels changed; references whose whole subtrie is down
// are left in place.
func (g *Grid) RefreshRefs() int {
	g.memberMu.Lock()
	defer g.memberMu.Unlock()
	next := g.snapshot().clone()
	changed := g.repairRefs(next)
	if changed > 0 {
		g.publish(next)
	}
	return changed
}

// noteRef records referrer -> target in the reverse routing index. Entries
// are appended blindly (duplicates and stale entries are tolerated; repair
// validates candidates against the actual tables). Callers hold g.memberMu
// or run during Build before the grid is published.
func (g *Grid) noteRef(target, referrer simnet.NodeID) {
	g.refBy[target] = append(g.refBy[target], referrer)
}

// repairRefs rewrites, inside the epoch under construction, every routing
// table that references a dead peer: crashed per the fabric's failure set, or
// tombstoned in next. Callers hold g.memberMu. Returns the number of levels
// changed.
func (g *Grid) repairRefs(next *view) int {
	dead := func(id simnet.NodeID) bool {
		return !next.member(id) || g.net.IsDown(id)
	}
	changed := 0
	next.peers.forEach(func(idx simnet.NodeID, p *Peer) {
		if p == nil {
			return
		}
		changed += g.repairPeerRefs(next, idx, dead)
	})
	return changed
}

// repairRefsTo repairs exactly the routing tables that reference the (now
// tombstoned) target, walking the reverse index instead of every peer.
// Candidates are visited in ascending id order — the same order the full
// sweep would reach them — and each repair also refreshes any other dead
// levels of that referrer. The target's index entry is dropped afterwards:
// tombstoned ids never return, and any reference the repair could not
// replace (whole subtrie dead) is picked up by the next RefreshRefs sweep.
// Callers hold g.memberMu.
func (g *Grid) repairRefsTo(next *view, target simnet.NodeID) int {
	cands := g.refBy[target]
	delete(g.refBy, target)
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	dead := func(id simnet.NodeID) bool {
		return !next.member(id) || g.net.IsDown(id)
	}
	changed := 0
	var prev simnet.NodeID = -1
	for _, idx := range cands {
		if idx == prev {
			continue
		}
		prev = idx
		if next.peers.at(idx) == nil {
			continue
		}
		changed += g.repairPeerRefs(next, idx, dead)
	}
	return changed
}

// repairPeerRefs repairs the dead reference levels of the peer at idx inside
// the epoch under construction, cloning it copy-on-write when anything needs
// rewriting. Returns the number of levels changed.
func (g *Grid) repairPeerRefs(next *view, idx simnet.NodeID, dead func(simnet.NodeID) bool) int {
	p := next.peers.at(idx)
	hasDead := false
	for l := range p.refs {
		for _, id := range p.refs[l] {
			if dead(id) {
				hasDead = true
				break
			}
		}
		if hasDead {
			break
		}
	}
	if !hasDead {
		return 0
	}
	changed := 0
	q := p.cloneForRefRepair()
	for l := range q.refs {
		levelDead := false
		for _, id := range q.refs[l] {
			if dead(id) {
				levelDead = true
				break
			}
		}
		if !levelDead {
			continue
		}
		sibling := q.path.Prefix(l + 1).FlipLast()
		lo, hi := next.leafRange(sibling)
		if lo >= hi {
			continue
		}
		kept := make([]simnet.NodeID, 0, len(q.refs[l]))
		for _, id := range q.refs[l] {
			if !dead(id) {
				kept = append(kept, id)
			}
		}
		// Refill up to the configured redundancy with fresh live peers;
		// drop dead entries that cannot be replaced. If the whole
		// subtrie is dead, keep the old table (no better information).
		for len(kept) < g.cfg.RefsPerLevel {
			alt, ok := g.pickLiveInRange(next, lo, hi, kept)
			if !ok {
				break
			}
			kept = append(kept, alt)
			g.noteRef(alt, q.id)
		}
		if len(kept) == 0 {
			continue
		}
		q.refs[l] = kept
		changed++
	}
	next.peers.set(idx, q)
	return changed
}

// pickLiveInRange draws a live peer from the leaves in [lo, hi) of the given
// view that is not already present in exclude.
func (g *Grid) pickLiveInRange(v *view, lo, hi int, exclude []simnet.NodeID) (simnet.NodeID, bool) {
	isExcluded := func(id simnet.NodeID) bool {
		if !v.member(id) || g.net.IsDown(id) {
			return true
		}
		for _, e := range exclude {
			if e == id {
				return true
			}
		}
		return false
	}
	for attempt := 0; attempt < 16; attempt++ {
		leaf := v.leaves.at(lo + g.randIntn(hi-lo))
		id := leaf.peers[g.randIntn(len(leaf.peers))]
		if !isExcluded(id) {
			return id, true
		}
	}
	// Random probing failed (dense failures); fall back to a linear sweep.
	for li := lo; li < hi; li++ {
		for _, id := range v.leaves.at(li).peers {
			if !isExcluded(id) {
				return id, true
			}
		}
	}
	return 0, false
}

// Net returns the underlying network fabric.
func (g *Grid) Net() simnet.Fabric { return g.net }

// Config returns the build configuration.
func (g *Grid) Config() Config { return g.cfg }

// PeerCount returns the size of the peer id space (departed slots included:
// ids are never reused, so this is also the next id a Join would take).
func (g *Grid) PeerCount() int { return g.snapshot().peers.len() }

// LiveCount returns the number of current members (departed slots excluded).
func (g *Grid) LiveCount() int {
	v := g.snapshot()
	return v.peers.len() - v.departed
}

// LeafCount returns the number of key-space partitions.
func (g *Grid) LeafCount() int { return g.snapshot().leaves.len() }

// Peer returns the peer with the given id in the current epoch. Departed
// peers yield ErrDeparted.
func (g *Grid) Peer(id simnet.NodeID) (*Peer, error) {
	return g.snapshot().peer(id)
}

// RandomPeer returns a uniformly random current member id, e.g. to act as a
// query initiator (the paper chooses initiating peers randomly in Section 6).
func (g *Grid) RandomPeer() simnet.NodeID {
	v := g.snapshot()
	// Departed slots are tombstones: probe a few times, then sweep.
	n := v.peers.len()
	for attempt := 0; attempt < 8; attempt++ {
		if p := v.peers.at(simnet.NodeID(g.randIntn(n))); p != nil {
			return p.id
		}
	}
	start := g.randIntn(n)
	for i := 0; i < n; i++ {
		if p := v.peers.at(simnet.NodeID((start + i) % n)); p != nil {
			return p.id
		}
	}
	return 0
}

// randIntn returns a random int below n using the grid's seeded source.
func (g *Grid) randIntn(n int) int {
	g.rngMu.Lock()
	defer g.rngMu.Unlock()
	return g.rng.Intn(n)
}

// Stats summarizes the constructed overlay for tools and tests.
type Stats struct {
	Peers        int // current members (departed slots excluded)
	Departed     int // peers that left gracefully
	Leaves       int
	MinDepth     int
	MaxDepth     int
	AvgDepth     float64
	MaxLeafItems int
	AvgRefs      float64
	StoredItems  int
}

// Stats computes overlay statistics over the current epoch.
func (g *Grid) Stats() Stats {
	v := g.snapshot()
	s := Stats{Peers: v.peers.len() - v.departed, Departed: v.departed,
		Leaves: v.leaves.len(), MinDepth: 1 << 30}
	depthSum := 0
	v.leaves.forEach(func(_ int, l *leafInfo) {
		d := l.path.Len()
		if d < s.MinDepth {
			s.MinDepth = d
		}
		if d > s.MaxDepth {
			s.MaxDepth = d
		}
		depthSum += d
		if l.items > s.MaxLeafItems {
			s.MaxLeafItems = l.items
		}
	})
	if v.leaves.len() > 0 {
		s.AvgDepth = float64(depthSum) / float64(v.leaves.len())
	}
	refSum := 0
	v.peers.forEach(func(_ simnet.NodeID, p *Peer) {
		if p == nil {
			return
		}
		for _, level := range p.refs {
			refSum += len(level)
		}
		s.StoredItems += p.StoreLen()
	})
	if s.Peers > 0 {
		s.AvgRefs = float64(refSum) / float64(s.Peers)
	}
	return s
}
