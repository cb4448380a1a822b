// One-pass bulk-load planning.
//
// core.Open used to traverse the dataset twice — once through a throwaway
// nil-grid store to collect the balancing sample, then again through
// LoadTuple to push postings one BulkInsert at a time. A LoadPlan extracts
// every tuple's index entries exactly once, across a worker pool, and the
// extracted entries serve as both the balancing sample (their keys, catalog
// postings excluded, exactly as CollectKeys sampled) and the load payload
// (Grid.BulkLoad applies them sharded by partition). Entry extraction — the
// key scheme's gram or signature expansion above all — is the CPU hot spot
// of the load phase, so the parallel pass chunks triples contiguously and
// each worker reuses one extractScratch (scheme buffers plus the bounded
// attribute-entry cache).
package ops

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/keys"
	"repro/internal/keyscheme"
	"repro/internal/pgrid"
	"repro/internal/triples"
)

// LoadPlan is the product of one planning pass over a dataset: every index
// entry each triple will occupy — key-sorted, data order breaking ties —
// plus the derived balancing sample and storage statistics. Plans are
// immutable once built; the same plan loads identically for any worker count.
type LoadPlan struct {
	cfg     StoreConfig
	entries []pgrid.BulkEntry
	sample  []keys.Key
	counts  map[triples.IndexKind]int64
	attrs   map[string]bool
	loaded  int64
	// stream, when non-nil, marks a budgeted plan (PlanLoadStream): entries
	// is empty and the apply pass re-extracts window by window instead.
	stream *streamPlan
}

// PlanLoad extracts the full index-entry set of the dataset in one pass,
// using up to `workers` extraction goroutines (<= 0 means GOMAXPROCS).
// Decomposition and validation run serially first, so error reporting is
// deterministic regardless of the worker count; duplicate-key entries keep
// data order, so loading the plan stores postings exactly as a serial
// LoadTuple loop would.
func PlanLoad(data []triples.Tuple, cfg StoreConfig, workers int) (*LoadPlan, error) {
	cfg.normalize()
	sch, err := keyscheme.New(cfg.Scheme, cfg.schemeParams())
	if err != nil {
		return nil, fmt.Errorf("ops: planning load: %w", err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ts, newAttr, attrs, err := decomposeAll(data)
	if err != nil {
		return nil, err
	}

	p := &LoadPlan{cfg: cfg, counts: make(map[triples.IndexKind]int64), attrs: attrs,
		loaded: int64(len(ts))}
	if len(ts) == 0 {
		return p, nil
	}
	flat := extractRange(ts, newAttr, 0, len(ts), &cfg, sch, workers)
	total := len(flat)

	// Pre-sort the entries by key, data order breaking ties (an index sort:
	// moving 4-byte indices beats shuffling 100+-byte entries, and the
	// permutation is applied in place — entries are ~128 bytes, so a second
	// array would double the load's allocation footprint). Downstream this
	// one sort does triple duty: grid construction re-sorts the sample in
	// near-linear time, BulkLoad resolves partition responsibility by linear
	// merge instead of per-key binary search, and shard batches apply without
	// any further sorting. Stable ties keep duplicate-key postings in data
	// order, so stores stay byte-identical to a serial load.
	idx := make([]int32, total)
	for i := range idx {
		idx[i] = int32(i)
	}
	radixSortEntryIdxPar(flat, idx, workers)
	permuteEntries(flat, idx)
	p.entries = flat

	// The balancing sample is every entry key except catalog postings, the
	// same multiset CollectKeys produced (IndexKeys samples with
	// newAttr=false so sampling is independent of data order).
	p.sample = make([]keys.Key, 0, total)
	for i := range p.entries {
		kind := p.entries[i].Posting.Index
		p.counts[kind]++
		if kind != triples.IndexCatalog {
			p.sample = append(p.sample, p.entries[i].Key)
		}
	}
	return p, nil
}

// decomposeAll runs the serial decompose/validate pass: it flattens the
// dataset into triples, resolves which triple first introduces each attribute
// (that triple carries the catalog posting, exactly as markAttr resolves it
// during a serial load), and reports errors deterministically regardless of
// any later worker count.
func decomposeAll(data []triples.Tuple) ([]triples.Triple, []bool, map[string]bool, error) {
	var (
		ts      []triples.Triple
		newAttr []bool
	)
	attrs := make(map[string]bool)
	for _, tu := range data {
		dec, err := triples.Decompose(tu)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ops: planning load of %s: %w", tu.OID, err)
		}
		for _, tr := range dec {
			if err := validateTriple(tr); err != nil {
				return nil, nil, nil, fmt.Errorf("ops: planning load of %s: %w", tu.OID, err)
			}
			newAttr = append(newAttr, !attrs[tr.Attr])
			attrs[tr.Attr] = true
			ts = append(ts, tr)
		}
	}
	return ts, newAttr, attrs, nil
}

// entryCountBound is the planner's per-triple bound on extracted entries —
// the same bound the extraction chunks size their buffers with.
func entryCountBound(sch keyscheme.Scheme, tr triples.Triple) int {
	est := 4 + sch.AttrEntryBound(len(tr.Attr))
	if tr.Val.Kind == triples.KindString {
		est += sch.ValueEntryBound(len(tr.Val.Str)) + 1
	}
	return est
}

// extractRange extracts the index entries of triples [lo, hi) in data order,
// chunked contiguously across up to `workers` goroutines. The output is
// identical for any worker count: chunks are contiguous triple ranges, their
// outputs concatenate in chunk order, and per-triple extraction is
// deterministic.
func extractRange(ts []triples.Triple, newAttr []bool, lo, hi int,
	cfg *StoreConfig, sch keyscheme.Scheme, workers int) []pgrid.BulkEntry {
	n := hi - lo
	nChunks := workers
	if nChunks > n {
		nChunks = n
	}
	if n == 0 {
		return nil
	}
	outs := make([][]pgrid.BulkEntry, nChunks)
	chunk := (n + nChunks - 1) / nChunks
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		clo := lo + c*chunk
		chi := clo + chunk
		if chi > hi {
			chi = hi
		}
		wg.Add(1)
		go func(c, clo, chi int) {
			defer wg.Done()
			xs := newExtractScratch()
			// Size the chunk's buffer from its exact per-triple bounds so the
			// extraction loop never regrows it.
			est := 0
			for i := clo; i < chi; i++ {
				est += entryCountBound(sch, ts[i])
			}
			dst := make([]pgrid.BulkEntry, 0, est)
			for i := clo; i < chi; i++ {
				dst = appendTripleEntries(dst, cfg, sch, ts[i], newAttr[i], xs)
			}
			outs[c] = dst
		}(c, clo, chi)
	}
	wg.Wait()
	if len(outs) == 1 {
		return outs[0]
	}
	total := 0
	for _, out := range outs {
		total += len(out)
	}
	flat := make([]pgrid.BulkEntry, 0, total)
	for _, out := range outs {
		flat = append(flat, out...)
	}
	return flat
}

// radixSortEntryIdx sorts idx — indices into es — by entry key, ascending,
// with the slice index as tiebreak (so duplicate keys keep data order: a
// stable key sort). It is an MSD radix sort over the keys' packed bytes:
// index keys share long family prefixes ("G#attr#…", "A#attr#…"), which a
// comparison sort re-scans on every one of its O(n log n) comparisons, while
// radix passes touch each prefix byte once per entry. Key order is
// byte-lexicographic with a bit-length tiebreak (see keys.Key.Compare), which
// MSD models naturally: keys exhausted at the current depth land in a
// bucket that sorts before all byte buckets, ordered among themselves by bit
// length then index.
func radixSortEntryIdx(es []pgrid.BulkEntry, idx []int32) {
	buf := make([]int32, len(idx))
	radixSortPass(es, idx, buf, 0)
}

// radixSortThreshold is the bucket size below which insertion sort takes
// over from further radix passes.
const radixSortThreshold = 24

func radixSortPass(es []pgrid.BulkEntry, idx, buf []int32, depth int) {
	if len(idx) <= radixSortThreshold {
		insertionSortEntryIdx(es, idx)
		return
	}
	// Bucket 0 holds keys with no byte at this depth (they sort first);
	// buckets 1..256 hold byte values 0..255.
	var counts [257]int32
	for _, i := range idx {
		counts[entryBucket(es, i, depth)]++
	}
	var offs [258]int32
	for b := 0; b < 257; b++ {
		offs[b+1] = offs[b] + counts[b]
	}
	pos := offs
	for _, i := range idx {
		b := entryBucket(es, i, depth)
		buf[pos[b]] = i
		pos[b]++
	}
	copy(idx, buf)
	// Exhausted keys share all their bytes; order them by bit length, then
	// original index (data order).
	if n := counts[0]; n > 1 {
		end := idx[:n]
		sort.Slice(end, func(a, b int) bool {
			la, lb := es[end[a]].Key.Len(), es[end[b]].Key.Len()
			if la != lb {
				return la < lb
			}
			return end[a] < end[b]
		})
	}
	for b := 1; b < 257; b++ {
		if counts[b] > 1 {
			radixSortPass(es, idx[offs[b]:offs[b+1]], buf[offs[b]:offs[b+1]], depth+1)
		}
	}
}

func entryBucket(es []pgrid.BulkEntry, i int32, depth int) int {
	k := &es[i].Key
	if k.PackedLen() <= depth {
		return 0
	}
	return int(k.PackedByte(depth)) + 1
}

// insertionSortEntryIdx sorts a small index bucket by (key, index).
func insertionSortEntryIdx(es []pgrid.BulkEntry, idx []int32) {
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 {
			c := es[idx[j-1]].Key.Compare(es[idx[j]].Key)
			if c < 0 || (c == 0 && idx[j-1] < idx[j]) {
				break
			}
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
}

// permuteEntries reorders es so that the new es[i] is the old es[idx[i]],
// in place by cycle rotation (no second entry array). idx is consumed:
// visited positions are marked negative.
func permuteEntries(es []pgrid.BulkEntry, idx []int32) {
	for i := range idx {
		if idx[i] < 0 || int(idx[i]) == i {
			continue
		}
		tmp := es[i]
		cur := i
		for {
			next := int(idx[cur])
			idx[cur] = -1
			if next == i {
				es[cur] = tmp
				break
			}
			es[cur] = es[next]
			cur = next
		}
	}
}

// SampleKeys returns the balancing sample for grid construction: every index
// key of every triple, catalog postings excluded.
func (p *LoadPlan) SampleKeys() []keys.Key { return p.sample }

// ReleaseSample drops the plan's balancing sample. The sample is dead weight
// once the grid is built — at 10M postings it holds hundreds of megabytes of
// key headers (and, for a streaming plan, their compacted byte arenas)
// through the entire apply phase. Callers release it between grid
// construction and ApplyLoadPlan; SampleKeys returns nil afterwards.
func (p *LoadPlan) ReleaseSample() { p.sample = nil }

// Triples reports the number of triples the plan covers.
func (p *LoadPlan) Triples() int64 { return p.loaded }

// Postings reports the number of index entries the plan will store.
func (p *LoadPlan) Postings() int {
	if p.stream != nil {
		return p.stream.postings
	}
	return len(p.entries)
}

// ApplyLoadPlan bulk-loads a plan into the store's grid with up to `workers`
// concurrent shard appliers (<= 0 means GOMAXPROCS) and adopts the plan's
// storage statistics and attribute set. It is intended for a freshly built
// store over a grid balanced with the plan's SampleKeys; applying a plan to
// a store that already holds data double-counts catalog postings for
// attributes both have seen. The stored state is byte-identical to a serial
// LoadTuple loop over the same data, for any worker count.
func (s *Store) ApplyLoadPlan(p *LoadPlan, workers int) error {
	if p.cfg != s.cfg {
		return fmt.Errorf("ops: plan built for store config %+v, store has %+v", p.cfg, s.cfg)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	defer s.clearCaches() // the write set is the whole plan
	if p.stream != nil {
		if err := s.applyStream(p, workers); err != nil {
			return err
		}
	} else if err := s.grid.BulkLoad(p.entries, workers); err != nil {
		return fmt.Errorf("ops: applying load plan: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range p.counts {
		s.counts[k] += v
	}
	s.loaded += p.loaded
	for a := range p.attrs {
		s.attrsSeen[a] = true
	}
	return nil
}
