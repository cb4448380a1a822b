// Package qcache provides the initiator-side query caches: byte-bounded maps
// that serve hot overlay fetches locally at zero message cost.
//
// Validity is tied to the write set, not to time or membership. An entry is
// valid until a write lands on something it was computed from: its owner
// calls Invalidate (entries named by key) or InvalidateFunc (entries a
// predicate over the stored value finds stale — e.g. an answer whose recorded
// read set the write hit) with exactly what the write touched, and every
// other entry stays. Membership changes (Join, Leave, RefreshRefs) move
// content between peers unchanged, so they invalidate nothing.
//
// The correctness argument is local to this file and has two halves:
//
//   - A write is reported after it has applied everywhere, and the report
//     removes the entries it names and advances the admission generation in
//     one critical section. An entry cached before the report is therefore
//     removed by it if the write touched it.
//   - A reader captures Gen before it reads the overlay and hands it back
//     with Put; a Put whose generation is no longer current is refused. A
//     value computed while a write was still applying (it may or may not have
//     seen it) can therefore never be admitted after that write's report.
//     The refusal is conservative — it also turns away concurrent Puts the
//     write did not touch — which costs hit ratio under concurrent writers,
//     never correctness.
//
// Eviction under the byte bound is seeded-deterministic: victims are drawn
// from the entry list by a splitmix64 stream, and invalidation walks that
// list and the caller's key slice in order, never a map. Two runs that
// perform the identical operation sequence with the same seed therefore evict
// and drop the same entries and produce the same hit/miss trace — the property
// every message-count oracle in this repository relies on.
package qcache

import (
	"sync"

	"repro/internal/simnet"
)

// Stats is a point-in-time snapshot of a cache's counters. Counters are
// cumulative over the cache's lifetime; Bytes and Entries describe the
// current contents.
type Stats struct {
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
	// Invalidations counts the invalidation events (Invalidate,
	// InvalidateFunc, Clear) that dropped at least one entry; Invalidated
	// counts the entries they dropped.
	Invalidations int64
	Invalidated   int64
	Bytes         int64
	Entries       int64
}

// HitRatio is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Sub returns the counter deltas since an earlier snapshot (Bytes and
// Entries are carried from the newer snapshot — they are levels, not
// counters).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:          s.Hits - o.Hits,
		Misses:        s.Misses - o.Misses,
		Puts:          s.Puts - o.Puts,
		Evictions:     s.Evictions - o.Evictions,
		Invalidations: s.Invalidations - o.Invalidations,
		Invalidated:   s.Invalidated - o.Invalidated,
		Bytes:         s.Bytes,
		Entries:       s.Entries,
	}
}

// slot is one cached entry: the value, its accounted bytes and its index in
// the entry list (so removal by key never scans the list).
type slot[V any] struct {
	v    V
	cost int
	at   int
}

// Cache is a byte-bounded map whose entries stay valid until invalidated. The
// cost function accounts each entry's approximate heap bytes; inserting
// beyond the bound evicts seeded-deterministic victims until the new entry
// fits. Safe for concurrent use; the cost function and InvalidateFunc's
// predicate run under the cache lock and must not call back into the cache.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	limit   int
	seed    uint64
	cost    func(K, V) int
	gen     uint64 // admission generation, advanced by every invalidation
	entries map[K]slot[V]
	order   []K // entry list: eviction draws from it, InvalidateFunc walks it
	bytes   int
	ticks   uint64 // eviction draw counter, part of the deterministic stream

	hits, misses, puts, evictions, invalidations, invalidated int64
}

// New returns a cache bounded to approximately limit accounted bytes. cost
// reports the accounted size of one entry; entries costing more than the
// whole limit are simply not cached.
func New[K comparable, V any](limit int, seed int64, cost func(K, V) int) *Cache[K, V] {
	return &Cache[K, V]{
		limit:   limit,
		seed:    simnet.Splitmix64(uint64(seed) ^ 0x9E3779B97F4A7C15),
		cost:    cost,
		entries: make(map[K]slot[V]),
	}
}

// Gen returns the current admission generation. A reader captures it before
// it reads the state a later Put will cache.
func (c *Cache[K, V]) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Get returns the entry cached for k, if any.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return s.v, ok
}

// Put caches v for k if gen — the generation the caller captured before it
// computed v — is still current. An invalidation in between refuses the Put:
// v may predate the write that was reported.
func (c *Cache[K, V]) Put(gen uint64, k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	cost := c.cost(k, v)
	if cost > c.limit {
		return
	}
	if _, ok := c.entries[k]; ok {
		c.remove(k)
	}
	for c.bytes+cost > c.limit && len(c.order) > 0 {
		i := int(simnet.Splitmix64(c.seed^c.ticks) % uint64(len(c.order)))
		c.ticks++
		c.remove(c.order[i])
		c.evictions++
	}
	c.entries[k] = slot[V]{v: v, cost: cost, at: len(c.order)}
	c.order = append(c.order, k)
	c.bytes += cost
	c.puts++
}

// Invalidate reports a write that touched the entries cached under ks: those
// present are removed, in slice order, and the admission generation advances.
func (c *Cache[K, V]) Invalidate(ks []K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for _, k := range ks {
		if _, ok := c.entries[k]; ok {
			c.remove(k)
			dropped++
		}
	}
	c.invalidatedLocked(dropped)
}

// InvalidateFunc reports a write that touched every entry stale reports true
// for: those are removed, walking the entry list in order, and the admission
// generation advances.
func (c *Cache[K, V]) InvalidateFunc(stale func(K, V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for i := 0; i < len(c.order); {
		k := c.order[i]
		if stale(k, c.entries[k].v) {
			c.remove(k) // moves the last entry to i; examine it next
			dropped++
		} else {
			i++
		}
	}
	c.invalidatedLocked(dropped)
}

// Clear reports a write of unknown extent: every entry is removed and the
// admission generation advances.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := len(c.entries)
	clear(c.entries)
	clear(c.order) // release the keys the list's backing array still references
	c.order = c.order[:0]
	c.bytes = 0
	c.invalidatedLocked(dropped)
}

// invalidatedLocked closes an invalidation event. The generation advances
// even when nothing was dropped: a reader that fetched the touched state
// before the write applied may not have Put it yet. Callers hold c.mu.
func (c *Cache[K, V]) invalidatedLocked(dropped int) {
	c.gen++
	if dropped > 0 {
		c.invalidations++
		c.invalidated += int64(dropped)
	}
}

// remove drops the entry cached under k, which must be present, filling its
// slot in the entry list with the list's last entry. Callers hold c.mu.
func (c *Cache[K, V]) remove(k K) {
	s := c.entries[k]
	last := len(c.order) - 1
	if moved := c.order[last]; s.at != last {
		c.order[s.at] = moved
		m := c.entries[moved]
		m.at = s.at
		c.entries[moved] = m
	}
	var zero K
	c.order[last] = zero
	c.order = c.order[:last]
	c.bytes -= s.cost
	delete(c.entries, k)
}

// Stats snapshots the cache's counters and current size.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Puts:          c.puts,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Invalidated:   c.invalidated,
		Bytes:         int64(c.bytes),
		Entries:       int64(len(c.entries)),
	}
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
