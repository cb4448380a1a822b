// Package keyscheme is the similarity key discipline of the storage scheme:
// padded positional q-grams keyed into the trie (Section 4). A Scheme
// decides which similarity index entries a string value (or an attribute
// name, at schema level) publishes into the overlay, which key probes a
// needle issues at query time (every gram, or the q-sample), and which
// postings those probes may keep as candidates. Everything else — the three
// base postings per triple, the short-value index, the catalog, routing,
// partitioning and the final edit-distance verification — lives outside
// this package.
package keyscheme

import (
	"repro/internal/keys"
	"repro/internal/strdist"
	"repro/internal/triples"
)

// Entry is one similarity index entry of a value or attribute name: the
// routing key plus the posting payload fields the scheme controls. The
// caller owns identity fields (oid, attr) and merges them in.
type Entry struct {
	// Key routes the entry to its responsible partition.
	Key keys.Key
	// Kind is the index family of the posting.
	Kind triples.IndexKind
	// GramText, GramPos and SrcLen become the posting's payload: the gram
	// text and position, and the source string length the length filter
	// needs.
	GramText string
	GramPos  int
	SrcLen   int
}

// ProbeSet is the query-side plan of a scheme for one needle: the keys to
// retrieve (ascending, so message traces stay reproducible), the index
// family the results must belong to, and the per-posting candidate
// predicate (Algorithm 2 line 8). Callers enforce both Kind and Accept.
type ProbeSet struct {
	Keys   []keys.Key
	Kind   triples.IndexKind
	Accept func(p triples.Posting) bool
	// KeyOf maps a posting fetched by this probe set back to the probe key
	// that retrieved it, making probe keys cacheable values: a batched
	// multicast returns one flat posting list, and the initiator-side
	// posting cache needs the per-key partition of that list to serve later
	// probes of the same keys locally. ok=false means the posting cannot be
	// attributed (it belongs to no probe key, e.g. an index family sharing
	// the key space); callers must then skip caching the whole batch.
	KeyOf func(p triples.Posting) (k keys.Key, ok bool)
}

// ---------------------------------------------------------------------------
// Scratch: per-worker extraction buffers.
// ---------------------------------------------------------------------------

// DefaultAttrCacheBytes bounds the accounted size of a Scratch's
// attribute-entry cache. Schemas are small, so in practice the cache holds
// every attribute; the bound exists so pathological schemas (many huge
// generated attribute names) degrade to recomputation instead of unbounded
// growth.
const DefaultAttrCacheBytes = 1 << 22

// Per-item accounting constants for the cache bound: the approximate heap
// footprint of an Entry (key header + kind + posting payload fields) and of
// a map slot.
const (
	entryCostBytes   = 72
	mapSlotCostBytes = 48
)

// Scratch holds the reusable buffers of one extraction or probe worker: a
// gram buffer (every value has different grams) and a byte-bounded cache of
// per-attribute schema entries (attribute names repeat on virtually every
// triple).
// A Scratch is not safe for concurrent use; pool one per worker.
type Scratch struct {
	grams []strdist.Gram

	attrEntries map[string][]Entry
	attrBytes   int
	attrCap     int
}

// NewScratch returns a Scratch with the default cache bound.
func NewScratch() *Scratch { return NewScratchWithCacheLimit(DefaultAttrCacheBytes) }

// NewScratchWithCacheLimit returns a Scratch whose attribute-entry cache is
// bounded to approximately limit accounted bytes.
func NewScratchWithCacheLimit(limit int) *Scratch {
	return &Scratch{attrEntries: make(map[string][]Entry), attrCap: limit}
}

// CachedAttrs reports the number of cached attribute expansions.
func (sc *Scratch) CachedAttrs() int { return len(sc.attrEntries) }

// CachedAttrBytes reports the accounted size of the cache.
func (sc *Scratch) CachedAttrBytes() int { return sc.attrBytes }

// cachedAttrEntries returns the cached expansion of attr, building and —
// if the byte bound allows — remembering it.
func (sc *Scratch) cachedAttrEntries(attr string, build func() []Entry) []Entry {
	if es, ok := sc.attrEntries[attr]; ok {
		return es
	}
	es := build()
	cost := attrCacheCost(attr, es)
	if sc.attrBytes+cost <= sc.attrCap {
		sc.attrEntries[attr] = es
		sc.attrBytes += cost
	}
	return es
}

// attrCacheCost approximates the heap bytes a cached expansion pins: the
// map slot and key string, and per entry its struct, gram text and packed
// key bytes.
func attrCacheCost(attr string, es []Entry) int {
	cost := mapSlotCostBytes + len(attr)
	for i := range es {
		cost += entryCostBytes + len(es[i].GramText) + es[i].Key.PackedLen()
	}
	return cost
}
