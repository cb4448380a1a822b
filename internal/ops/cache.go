package ops

import (
	"slices"
	"sync"
	"unsafe"

	"repro/internal/keys"
	"repro/internal/pgrid"
	"repro/internal/qcache"
	"repro/internal/triples"
)

// Initiator-side hot caching. Two caches ride the query path:
//
//   - the posting cache maps a probe key (a gram or oid storage key)
//     to the exact posting list the overlay would return for it, so fetch
//     serves hot keys locally and multicasts only the misses;
//   - the result cache maps a whole similarity question (needle, attr,
//     distance, method) to its verified matches, short-circuiting repeated
//     queries — including every distance rung TopNString climbs — at zero
//     message cost.
//
// Validity follows the write set (see internal/qcache for the argument). A
// cached posting list is valid until a write lands on its key. A cached
// answer is valid until a write lands on something its evaluation read: the
// evaluation records its read set — every probe key it requested, every
// prefix it scanned, every oid key it reconstructed — and the answer is
// stored beside it. Every store-mutating path ends in invalidate, which hands
// the entry keys the write touched to both caches after the write has applied
// at owner and replicas (ApplyLoadPlan, whose write set is the whole load,
// clears them instead). Membership changes — Join, Leave, RefreshRefs — move
// postings between peers unchanged and invalidate nothing: an answer does not
// depend on who holds the data.
//
// Both caches are bypassed for the naive method: it exists to measure the
// uncached wire protocol, so its fetches must keep hitting the wire.

// Default byte bounds of the two caches, in accounted entry bytes — what the
// entries hold on the heap, see the cost functions below; CacheConfig
// overrides them. A cached posting costs its full in-memory struct (104 B,
// four times its wire size), so the posting bound is the larger: 16 MiB is
// ~120 000 postings, the probe and oid lists of a few hundred distinct
// needles.
const (
	DefaultPostingCacheBytes = 16 << 20
	DefaultResultCacheBytes  = 4 << 20
)

// CacheConfig enables the initiator-side caches. It lives outside
// StoreConfig so StoreConfig stays ==-comparable (ApplyLoadPlan guards
// plan/store agreement by struct equality).
type CacheConfig struct {
	// PostingBytes bounds the posting cache (0 = DefaultPostingCacheBytes;
	// negative disables the posting cache).
	PostingBytes int
	// ResultBytes bounds the result cache (0 = DefaultResultCacheBytes;
	// negative disables the result cache).
	ResultBytes int
	// Seed drives the deterministic eviction stream (default 1).
	Seed int64
}

// postingCacheKey is the comparable form of a storage key: keys.Key itself
// is not comparable (it wraps a byte slice), so the packed bits plus the bit
// length stand in for it.
type postingCacheKey struct {
	packed string
	bits   int
}

func postingKeyOf(k keys.Key) postingCacheKey {
	return postingCacheKey{packed: string(k.Bytes()), bits: k.Len()}
}

// resultCacheKey identifies one similarity question. The schema level is
// implied by attr == ""; NoShortFallback changes the answer set, so it is
// part of the key.
type resultCacheKey struct {
	needle  string
	attr    string
	d       int
	method  Method
	noShort bool
}

// answer is one result-cache entry: the verified matches and the read set
// their evaluation recorded, as sorted key hashes (see readSet).
type answer struct {
	matches []Match
	reads   []uint64
}

// queryCache bundles the store's two initiator-side caches. Either may be
// nil (disabled) independently.
type queryCache struct {
	postings *qcache.Cache[postingCacheKey, []triples.Posting]
	results  *qcache.Cache[resultCacheKey, answer]
}

// readSet records what one similarity evaluation read from the overlay, as
// 64-bit hashes: exact storage keys under their own hash, scanned prefixes
// under theirs xor scanSalt (so a key never aliases a prefix scan). Hashes
// keep a 1 000-candidate answer's read set at 8 KB where the keys themselves
// would take ten times that and crowd the answers out of the cache; a
// collision can only invalidate an answer that a write did not touch. The
// candidate phases of one evaluation run on goroutines under the actor
// executor, hence the lock. A nil *readSet records nothing — the uncached
// paths pass nil and pay nothing.
type readSet struct {
	mu     sync.Mutex
	hashes []uint64
}

const scanSalt = 0x9E3779B97F4A7C15

// addKeys records exact storage keys the evaluation requested — whether or not
// they returned postings: a later write may land on a key that was empty.
func (r *readSet) addKeys(ks []keys.Key) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range ks {
		r.hashes = append(r.hashes, k.Hash64())
	}
}

// addScan records a prefix the evaluation scanned. writeSet maps every written
// entry that such a scan could return back to the same prefix.
func (r *readSet) addScan(prefix keys.Key) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hashes = append(r.hashes, prefix.Hash64()^scanSalt)
}

// sorted returns the recorded hashes sorted, deduplicated and at exact
// capacity — the form answers store and hitsAny searches.
func (r *readSet) sorted() []uint64 {
	slices.Sort(r.hashes)
	return slices.Clone(slices.Compact(r.hashes))
}

// writeSet is readSet's counterpart for a write: the hashes of the entry keys
// it wrote plus, for every entry of an index family the similarity operator
// prefix-scans (shortCandidates), the hash of the scan prefix that covers it.
func writeSet(es []pgrid.BulkEntry) []uint64 {
	out := make([]uint64, 0, len(es)+3)
	for i := range es {
		e := &es[i]
		out = append(out, e.Key.Hash64())
		switch attr := e.Posting.Triple.Attr; e.Posting.Index {
		case triples.IndexShort:
			out = append(out, triples.ShortValuePrefix(attr).Hash64()^scanSalt)
		case triples.IndexAttrValue:
			out = append(out, triples.AttrPrefix(attr).Hash64()^scanSalt)
		case triples.IndexCatalog:
			out = append(out, triples.CatalogPrefix().Hash64()^scanSalt)
		}
	}
	return out
}

// hitsAny reports whether any written hash is in the sorted read set.
func hitsAny(reads, written []uint64) bool {
	for _, h := range written {
		if _, found := slices.BinarySearch(reads, h); found {
			return true
		}
	}
	return false
}

// invalidate is the write half of the caches' validity rule: es are the index
// entries a write has just applied (or tried to — a write that failed midway
// reports them all). Callers invoke it after the last entry has applied at
// owner and replicas, never before: an earlier report would let a concurrent
// reader cache pre-write state behind it. The posting cache goes first: a
// reader that was served a stale posting list captured the result cache's
// generation before that, so the result cache's report, coming last, refuses
// the answer it computed.
func (s *Store) invalidate(es []pgrid.BulkEntry) {
	c := s.cache
	if c == nil {
		return
	}
	if c.postings != nil {
		ks := make([]postingCacheKey, len(es))
		for i := range es {
			ks[i] = postingKeyOf(es[i].Key)
		}
		c.postings.Invalidate(ks)
	}
	if c.results != nil {
		written := writeSet(es)
		c.results.InvalidateFunc(func(_ resultCacheKey, a answer) bool { return hitsAny(a.reads, written) })
	}
}

// clearCaches is invalidate for a write whose extent is the whole store (a
// load plan): both caches are emptied.
func (s *Store) clearCaches() {
	c := s.cache
	if c == nil {
		return
	}
	if c.postings != nil {
		c.postings.Clear()
	}
	if c.results != nil {
		c.results.Clear()
	}
}

// Per-entry accounting: the heap bytes an entry holds on to, so the byte
// bounds bound the heap (TestCacheBytesBoundHeap). Strings inside postings and
// matches are shared with the peers' stores in this one-process simulator;
// they are charged anyway, as a deployed initiator would own its copies.
const (
	postingSlotCostBytes = 128 // map slot (key + slice header + bookkeeping, at the map's load factor) + entry-list slot
	resultSlotCostBytes  = 256 // the same for the wider result key and answer value
	fieldCostBytes       = int(unsafe.Sizeof(triples.Field{}))
	matchCostBytes       = int(unsafe.Sizeof(Match{}))
	postingCostBytes     = int(unsafe.Sizeof(triples.Posting{}))
)

func postingListCost(k postingCacheKey, ps []triples.Posting) int {
	cost := postingSlotCostBytes + len(k.packed) + cap(ps)*postingCostBytes
	for i := range ps {
		p := &ps[i]
		cost += len(p.Triple.OID) + len(p.Triple.Attr) + len(p.Triple.Val.Str) + len(p.GramText)
	}
	return cost
}

func matchListCost(k resultCacheKey, a answer) int {
	cost := resultSlotCostBytes + len(k.needle) + len(k.attr) + 8*cap(a.reads) + cap(a.matches)*matchCostBytes
	for i := range a.matches {
		m := &a.matches[i]
		cost += len(m.OID) + len(m.Attr) + len(m.Matched) + cap(m.Object.Fields)*fieldCostBytes
		for _, f := range m.Object.Fields {
			cost += len(f.Name) + len(f.Val.Str)
		}
	}
	return cost
}

// EnableCache installs the initiator-side caches. Call it before issuing
// queries (core.Open does, right after the load phase); it is not safe to
// race with in-flight queries.
func (s *Store) EnableCache(cfg CacheConfig) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	qc := &queryCache{}
	if cfg.PostingBytes >= 0 {
		limit := cfg.PostingBytes
		if limit == 0 {
			limit = DefaultPostingCacheBytes
		}
		qc.postings = qcache.New[postingCacheKey, []triples.Posting](limit, cfg.Seed, postingListCost)
	}
	if cfg.ResultBytes >= 0 {
		limit := cfg.ResultBytes
		if limit == 0 {
			limit = DefaultResultCacheBytes
		}
		qc.results = qcache.New[resultCacheKey, answer](limit, cfg.Seed+1, matchListCost)
	}
	s.cache = qc
}

// CacheEnabled reports whether EnableCache has installed the caches.
func (s *Store) CacheEnabled() bool { return s.cache != nil }

// CacheStats snapshots both caches' counters (zero-valued when a cache is
// disabled).
type CacheStats struct {
	Postings qcache.Stats
	Results  qcache.Stats
}

// Sub returns per-cache counter deltas since an earlier snapshot.
func (cs CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{Postings: cs.Postings.Sub(o.Postings), Results: cs.Results.Sub(o.Results)}
}

// CacheStats snapshots the store's cache counters.
func (s *Store) CacheStats() CacheStats {
	var out CacheStats
	if s.cache == nil {
		return out
	}
	if s.cache.postings != nil {
		out.Postings = s.cache.postings.Stats()
	}
	if s.cache.results != nil {
		out.Results = s.cache.results.Stats()
	}
	return out
}

// copyMatches returns a caller-owned top-level slice of a cached result
// (callers sort and truncate match slices; the inner tuples are shared
// read-only, like any reconstructed object).
func copyMatches(ms []Match) []Match {
	if ms == nil {
		return nil
	}
	out := make([]Match, len(ms))
	copy(out, ms)
	return out
}
