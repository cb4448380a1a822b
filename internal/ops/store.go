// Package ops implements the paper's physical operators over a P-Grid
// overlay: the basic string-similarity operator of Algorithm 2 in its three
// variants (naive full-string scan, q-grams, q-samples), similarity joins
// (Algorithm 3), top-N queries with MIN/MAX/NN ranking (Algorithms 4 and 5),
// and the exact/range selections the VQL executor composes them with.
//
// A Store wraps a constructed grid with the vertical storage scheme of
// Sections 3 and 4: every triple (oid, A, v) is indexed by oid, by A#v and by
// v, plus one posting per positional q-gram of v (instance level) and of A
// (schema level; see internal/keyscheme). Two small side indexes — short
// values and the attribute catalog — close the completeness gap of
// similarity probing for strings below the scheme's short threshold (see
// strdist.GuaranteeThreshold); they are a documented extension of this
// reproduction.
package ops

import (
	"fmt"
	"sync"

	"repro/internal/keys"
	"repro/internal/keyscheme"
	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// Method selects the string-similarity evaluation strategy compared in the
// paper's Figure 1.
type Method int

const (
	// MethodQGrams probes every overlapping positional q-gram of the needle.
	MethodQGrams Method = iota
	// MethodQSamples probes only d+1 non-overlapping q-grams (the q-sample),
	// trading more candidates for fewer lookups.
	MethodQSamples
	// MethodNaive ships the needle to every partition holding values of the
	// attribute and compares locally ("strings" in Figure 1).
	MethodNaive
)

// String names the method as in the paper's figures.
func (m Method) String() string {
	switch m {
	case MethodQGrams:
		return "qgrams"
	case MethodQSamples:
		return "qsamples"
	case MethodNaive:
		return "strings"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// MaxDistance is the largest similarity distance the store is tuned for, the
// maximum distance of the paper's evaluation queries: it sizes the short-value
// index (values shorter than the scheme's ShortThreshold(MaxDistance)) and
// caps the iterative deepening of rank-aware string queries.
const MaxDistance = 5

// StoreConfig fixes the storage-scheme parameters. It stays comparable
// (ApplyLoadPlan guards plan/store agreement by struct equality).
type StoreConfig struct {
	// Q is the gram size (default 3).
	Q int
	// DisableShortIndex turns the completeness extension off entirely,
	// reproducing the paper's storage scheme verbatim.
	DisableShortIndex bool
}

func (c *StoreConfig) normalize() {
	if c.Q <= 0 {
		c.Q = 3
	}
}

// Store is the vertical triple store over a P-Grid overlay.
type Store struct {
	grid   *pgrid.Grid
	cfg    StoreConfig
	scheme keyscheme.Scheme

	// scratch pools entry-extraction buffers (scheme scratch, entry buffer)
	// across routed inserts, keeping the entry hot path allocation-lean.
	scratch sync.Pool
	// qscratch pools query-side buffers (oid slices, key batches, posting
	// merge buffers) across similarity queries — the query-path allocation
	// diet's counterpart to scratch.
	qscratch sync.Pool

	// cache holds the initiator-side posting and result caches (nil until
	// EnableCache). Every path that mutates the grid reports what it wrote
	// through invalidate or clearCaches (cache.go).
	cache *queryCache

	mu        sync.Mutex
	attrsSeen map[string]bool
	counts    map[triples.IndexKind]int64
	loaded    int64
}

// NewStore wraps a constructed grid. The grid should have been built with
// the SampleKeys of a LoadPlan over the data to be loaded, so partitions
// balance.
func NewStore(grid *pgrid.Grid, cfg StoreConfig) *Store {
	cfg.normalize()
	return &Store{
		grid:      grid,
		cfg:       cfg,
		scheme:    keyscheme.New(cfg.Q),
		scratch:   sync.Pool{New: func() any { return newExtractScratch() }},
		qscratch:  sync.Pool{New: func() any { return new(queryScratch) }},
		attrsSeen: make(map[string]bool),
		counts:    make(map[triples.IndexKind]int64),
	}
}

// Scheme exposes the store's similarity key scheme.
func (s *Store) Scheme() keyscheme.Scheme { return s.scheme }

// Grid exposes the underlying overlay.
func (s *Store) Grid() *pgrid.Grid { return s.grid }

// Config returns the normalized store configuration.
func (s *Store) Config() StoreConfig { return s.cfg }

// extractScratch holds the reusable buffers of one entry-extraction worker:
// the scheme's scratch (gram buffer, byte-bounded attribute-entry
// cache — attribute names repeat on virtually every triple, so their
// expansion is computed once per distinct name) plus a buffer for the
// scheme's per-value entries.
type extractScratch struct {
	sc  *keyscheme.Scratch
	buf []keyscheme.Entry
}

func newExtractScratch() *extractScratch {
	return &extractScratch{sc: keyscheme.NewScratch()}
}

// appendTripleEntries appends every index entry of one triple per the storage
// scheme: oid, attr#value and value postings carrying the full triple; the
// key scheme's slim similarity postings for a string value (instance level)
// and for the attribute name (schema level — Section 4: key(q_j^Ai) ->
// (oid, q_j^Ai, vi); the posting carries the oid, the full object is
// reconstructed via the oid index); a short-value posting when the value is
// below the short limit; and a catalog posting the first time an attribute
// name is seen. It is the shared entry-extraction core of the bulk-load
// planner and the routed insert path.
func appendTripleEntries(dst []pgrid.BulkEntry, cfg *StoreConfig, sch keyscheme.Scheme, tr triples.Triple, newAttr bool, xs *extractScratch) []pgrid.BulkEntry {
	// Exact upper bound on the entries of this triple: 3 base postings, the
	// scheme's entries for value and attribute name, short + catalog.
	need := 3 + sch.AttrEntryBound(len(tr.Attr)) + 1
	if tr.Val.Kind == triples.KindString {
		need += sch.ValueEntryBound(len(tr.Val.Str)) + 1
	}
	if free := cap(dst) - len(dst); free < need {
		grown := make([]pgrid.BulkEntry, len(dst), cap(dst)+need+cap(dst)/2)
		copy(grown, dst)
		dst = grown
	}

	full := triples.Posting{Triple: tr}
	add := func(kind triples.IndexKind, k keys.Key, p triples.Posting) {
		p.Index = kind
		dst = append(dst, pgrid.BulkEntry{Key: k, Posting: p})
	}

	add(triples.IndexOID, triples.OIDKey(tr.OID), full)
	add(triples.IndexAttrValue, triples.AttrValueKey(tr.Attr, tr.Val), full)
	add(triples.IndexValue, triples.ValueKey(tr.Val), full)

	if tr.Val.Kind == triples.KindString {
		v := tr.Val.Str
		slim := triples.Posting{Triple: triples.Triple{OID: tr.OID, Attr: tr.Attr}}
		xs.buf = sch.ValueEntries(xs.buf[:0], tr.Attr, v, xs.sc)
		for i := range xs.buf {
			e := &xs.buf[i]
			p := slim
			p.GramText, p.GramPos, p.SrcLen = e.GramText, e.GramPos, e.SrcLen
			add(e.Kind, e.Key, p)
		}
		if !cfg.DisableShortIndex && len(v) < sch.ShortThreshold(MaxDistance) {
			add(triples.IndexShort, triples.ShortValueKey(tr.Attr, tr.Val), full)
		}
	}

	slimAttr := triples.Posting{Triple: triples.Triple{OID: tr.OID}}
	for _, e := range sch.AttrEntries(tr.Attr, xs.sc) {
		p := slimAttr
		p.GramText, p.GramPos, p.SrcLen = e.GramText, e.GramPos, e.SrcLen
		add(e.Kind, e.Key, p)
	}

	if newAttr && !cfg.DisableShortIndex {
		add(triples.IndexCatalog, triples.CatalogKey(tr.Attr),
			triples.Posting{Triple: triples.Triple{Attr: tr.Attr}})
	}
	return dst
}

// entriesForTriple computes the index entries of one triple using pooled
// extraction buffers.
func (s *Store) entriesForTriple(tr triples.Triple, newAttr bool) []pgrid.BulkEntry {
	xs := s.scratch.Get().(*extractScratch)
	out := appendTripleEntries(nil, &s.cfg, s.scheme, tr, newAttr, xs)
	s.scratch.Put(xs)
	return out
}

// markAttr records an attribute name, reporting whether it is new.
func (s *Store) markAttr(attr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrsSeen[attr] {
		return false
	}
	s.attrsSeen[attr] = true
	return true
}

func (s *Store) recordEntries(es []pgrid.BulkEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range es {
		s.counts[e.Posting.Index]++
	}
	s.loaded++
}

// validateTriple applies the model validations plus the value byte rules the
// key encoding requires.
func validateTriple(tr triples.Triple) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	return triples.ValidateValue(tr.Val)
}

// InsertTriple stores one triple with routed, fully accounted messages (one
// routed insert per index entry), from the given initiating peer. The paper
// notes this "overhead of storing, publishing and maintaining relations as
// triples" in Section 8; the StorageOverhead benchmark measures it.
func (s *Store) InsertTriple(t *metrics.Tally, from simnet.NodeID, tr triples.Triple) error {
	if err := validateTriple(tr); err != nil {
		return err
	}
	es := s.entriesForTriple(tr, s.markAttr(tr.Attr))
	defer s.invalidate(es) // deferred: the report follows the apply, on the error paths too
	for _, e := range es {
		if err := s.grid.Insert(t, from, e.Key, e.Posting); err != nil {
			return fmt.Errorf("ops: inserting %s: %w", tr, err)
		}
	}
	s.recordEntries(es)
	return nil
}

// InsertTuple inserts a whole tuple with accounting.
func (s *Store) InsertTuple(t *metrics.Tally, from simnet.NodeID, tu triples.Tuple) error {
	ts, err := triples.Decompose(tu)
	if err != nil {
		return err
	}
	for _, tr := range ts {
		if err := s.InsertTriple(t, from, tr); err != nil {
			return err
		}
	}
	return nil
}

// DeleteTriple removes every index entry of the triple, routed and accounted.
// Each remove names its exact posting, so a key the triple shares with other
// triples of the same object (its oid key, or a value key when two of its
// attributes hold the same value) loses this triple's posting and no other.
func (s *Store) DeleteTriple(t *metrics.Tally, from simnet.NodeID, tr triples.Triple) error {
	if err := validateTriple(tr); err != nil {
		return err
	}
	es := s.entriesForTriple(tr, false)
	defer s.invalidate(es) // deferred: the report follows the apply, on the error paths too
	for _, e := range es {
		if _, err := s.grid.DeletePosting(t, from, e.Key, e.Posting); err != nil {
			return err
		}
	}
	s.mu.Lock()
	for _, e := range es {
		s.counts[e.Posting.Index]--
	}
	s.loaded--
	s.mu.Unlock()
	return nil
}

// StorageStats reports posting counts per index family; the storage-overhead
// experiment (E4) reads them.
type StorageStats struct {
	Triples  int64
	ByIndex  map[triples.IndexKind]int64
	Postings int64
}

// Stats snapshots the storage statistics.
func (s *Store) Stats() StorageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StorageStats{Triples: s.loaded, ByIndex: make(map[triples.IndexKind]int64, len(s.counts))}
	for k, v := range s.counts {
		out.ByIndex[k] = v
		out.Postings += v
	}
	return out
}
