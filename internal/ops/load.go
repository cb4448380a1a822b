package ops

// Bulk loading: the one way a dataset enters a grid (core.Open runs it).
//
// PlanLoadStream makes one planning pass. It decomposes and validates every
// tuple serially, so errors are deterministic whatever the worker count. It
// splits the triple stream into contiguous windows whose modeled entry
// footprint fits a byte budget (a budget <= 0 is one window) and extracts
// each window across a worker pool. Entry extraction, above all the key
// scheme's gram expansion, is the CPU hot spot of the load, so
// workers take contiguous triple chunks and each reuses one extractScratch
// (scheme buffers plus the bounded attribute-entry cache). The extracted
// keys, catalog postings excluded, are the balancing sample grid
// construction needs. The planner drops each window's entries again, except
// those of the last window, which it sorts by (key, posting) and keeps.
//
// ApplyLoadPlan applies the kept window first, then re-extracts, sorts and
// bulk-loads the other windows one at a time, so at most one window of
// entries is resident. With one window this is one extraction and one sort,
// and the sample aliases the sorted entries' keys.
//
// Stores come out byte-identical for any budget and worker count: every
// window is sorted by (key, posting), the order stores keep, and
// Grid.BulkLoad merges each window into the stores in that order. The sample
// is the same key multiset however the data is windowed, and counts and
// attributes are order-free. With one window the sample is already sorted
// and grid construction reads it in place; a windowed sample is sorted once,
// on a copy, by pgrid.Build.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/keys"
	"repro/internal/keyscheme"
	"repro/internal/pgrid"
	"repro/internal/triples"
)

// entryFootprint models the resident bytes one extracted entry costs:
// the BulkEntry struct (key header + posting) plus the key's packed-byte
// backing and the posting payload it pins. It is a deterministic planning
// constant — window boundaries and the reported peak must not depend on
// allocator behavior.
const entryFootprint = 160

// loadWindow is one contiguous triple range of a plan.
type loadWindow struct {
	lo, hi int
}

// LoadPlan is the product of one planning pass over a dataset: the
// decomposed triples and their window schedule, the sorted entries of the
// last window, the balancing sample, and the storage statistics the load
// will produce.
type LoadPlan struct {
	cfg     StoreConfig
	sch     keyscheme.Scheme
	ts      []triples.Triple
	newAttr []bool
	budget  int64
	windows []loadWindow
	// entries holds the last window's entries sorted by (key, posting), the
	// order peer stores keep. ApplyLoadPlan applies them first and drops
	// them; a later apply of the same plan re-extracts that window too.
	entries  []pgrid.BulkEntry
	sample   []keys.Key
	counts   map[triples.IndexKind]int64
	attrs    map[string]bool
	postings int
	// peakBytes is the modeled high-water mark of resident extracted entries
	// across planning and apply (one window at a time).
	peakBytes int64
}

// PlanLoadStream plans the load of a dataset, keeping at most `budget`
// modeled bytes of extracted entries resident (<= 0: the whole dataset is
// one window), with up to `workers` extraction goroutines (<= 0 means
// GOMAXPROCS). Budgets smaller than one triple's extraction still admit one
// triple per window. The loaded store is byte-identical for any budget and
// worker count.
func PlanLoadStream(data []triples.Tuple, cfg StoreConfig, workers int, budget int64) (*LoadPlan, error) {
	cfg.normalize()
	sch := keyscheme.New(cfg.Q)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	budget = max(budget, 0)

	ts, newAttr, attrs, err := decomposeAll(data)
	if err != nil {
		return nil, err
	}
	p := &LoadPlan{cfg: cfg, sch: sch, ts: ts, newAttr: newAttr, budget: budget,
		windows: windowTriples(sch, ts, budget),
		counts:  make(map[triples.IndexKind]int64), attrs: attrs}
	for i, w := range p.windows {
		entries := p.extract(w, workers)
		p.postings += len(entries)
		p.peakBytes = max(p.peakBytes, int64(len(entries))*entryFootprint)
		for j := range entries {
			p.counts[entries[j].Posting.Index]++
		}
		if i == len(p.windows)-1 {
			sortEntries(entries, workers)
			p.entries = entries
		}
		p.sample = appendSample(p.sample, entries, len(p.windows) == 1)
	}
	return p, nil
}

// windowTriples splits ts into contiguous windows whose modeled entry
// footprint fits budget; budget 0 is one window. Bounds come from the same
// per-triple entry bound the extraction buffers use, so windowing is
// deterministic and needs no trial extraction.
func windowTriples(sch keyscheme.Scheme, ts []triples.Triple, budget int64) []loadWindow {
	if len(ts) == 0 {
		return nil
	}
	if budget == 0 {
		return []loadWindow{{lo: 0, hi: len(ts)}}
	}
	var windows []loadWindow
	lo := 0
	var winBytes int64
	for i := range ts {
		b := int64(entryCountBound(sch, ts[i])) * entryFootprint
		if i > lo && winBytes+b > budget {
			windows = append(windows, loadWindow{lo: lo, hi: i})
			lo, winBytes = i, 0
		}
		winBytes += b
	}
	return append(windows, loadWindow{lo: lo, hi: len(ts)})
}

// appendSample appends the balancing-sample keys of a window's entries —
// every key but the catalog postings' — to sample. With alias set (one
// window) the keys share the entries' backing. Otherwise they are compacted
// into one exactly-sized arena per window: the sample does not pin a window
// the planner drops, and the key bytes grid construction compares while it
// sorts the sample stay contiguous instead of scattered across the kept
// window's sorted entries.
func appendSample(sample []keys.Key, entries []pgrid.BulkEntry, alias bool) []keys.Key {
	sample = slices.Grow(sample, len(entries))
	var arena []byte
	if !alias {
		n := 0
		for i := range entries {
			if entries[i].Posting.Index != triples.IndexCatalog {
				n += entries[i].Key.PackedLen()
			}
		}
		arena = make([]byte, 0, n)
	}
	for i := range entries {
		if entries[i].Posting.Index == triples.IndexCatalog {
			continue
		}
		k := entries[i].Key
		if !alias {
			k, arena = k.CloneInto(arena)
		}
		sample = append(sample, k)
	}
	return sample
}

// decomposeAll runs the serial decompose/validate pass: it flattens the
// dataset into triples, resolves which triple first introduces each attribute
// (that triple carries the catalog posting, exactly as markAttr resolves it
// for a routed insert), and reports errors deterministically regardless of
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

// extract extracts the index entries of one window in data order, chunked
// contiguously across up to `workers` goroutines. The output is identical
// for any worker count: chunks are contiguous triple ranges, their outputs
// concatenate in chunk order, and per-triple extraction is deterministic.
func (p *LoadPlan) extract(w loadWindow, workers int) []pgrid.BulkEntry {
	n := w.hi - w.lo
	nChunks := min(workers, n)
	if n == 0 {
		return nil
	}
	outs := make([][]pgrid.BulkEntry, nChunks)
	chunk := (n + nChunks - 1) / nChunks
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		clo := w.lo + c*chunk
		chi := min(clo+chunk, w.hi)
		wg.Add(1)
		go func(c, clo, chi int) {
			defer wg.Done()
			xs := newExtractScratch()
			// Size the chunk's buffer from its exact per-triple bounds so the
			// extraction loop never regrows it.
			est := 0
			for i := clo; i < chi; i++ {
				est += entryCountBound(p.sch, p.ts[i])
			}
			dst := make([]pgrid.BulkEntry, 0, est)
			for i := clo; i < chi; i++ {
				dst = appendTripleEntries(dst, &p.cfg, p.sch, p.ts[i], p.newAttr[i], xs)
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

// sortEntries sorts a window's entries by (key, posting) in place. It is an
// index sort (moving 4-byte indices beats shuffling ~128-byte entries) whose
// permutation is applied by cycle rotation, so no second entry array doubles
// the load's allocation footprint. Downstream this is the load's only sort:
// grid construction reads a one-window sample in place, BulkLoad cuts the
// batch into per-partition runs by binary search instead of hashing every
// key, and the runs apply without any further sorting.
func sortEntries(es []pgrid.BulkEntry, workers int) {
	idx := make([]int32, len(es))
	for i := range idx {
		idx[i] = int32(i)
	}
	radixSortEntryIdxPar(es, idx, workers)
	permuteEntries(es, idx)
}

// radixSortEntryIdx sorts idx — indices into es — by entry key, then
// posting, then slice index (identical entries keep data order). It is an
// MSD radix sort over the keys' packed bytes: index keys share long family
// prefixes ("G#attr#…", "A#attr#…"), which a comparison sort re-scans on
// every one of its O(n log n) comparisons, while radix passes touch each
// prefix byte once per entry. Key order is byte-lexicographic with a
// bit-length tiebreak (see keys.Key.Compare), which MSD models naturally:
// keys exhausted at the current depth land in a bucket that sorts before
// all byte buckets, ordered among themselves by sortExhausted.
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
	if counts[0] > 1 {
		sortExhausted(es, idx[:counts[0]])
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

// sortExhausted orders a bucket of keys exhausted at the current radix
// depth. They share all their bytes, so: by bit length, then posting, then
// original index. Runs of one key arrive in data order, which for ascending
// oids is already posting order — pdqsort's linear case.
func sortExhausted(es []pgrid.BulkEntry, idx []int32) {
	slices.SortFunc(idx, func(a, b int32) int {
		ea, eb := &es[a], &es[b]
		if c := cmp.Compare(ea.Key.Len(), eb.Key.Len()); c != 0 {
			return c
		}
		if c := ea.Posting.Compare(&eb.Posting); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// insertionSortEntryIdx sorts a small index bucket by (key, posting, index).
func insertionSortEntryIdx(es []pgrid.BulkEntry, idx []int32) {
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 {
			a, b := &es[idx[j-1]], &es[idx[j]]
			c := a.Key.Compare(b.Key)
			if c == 0 {
				c = a.Posting.Compare(&b.Posting)
			}
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
// key headers and, for windows other than the last, their compacted byte
// arenas — through the entire apply phase. Callers release it between grid
// construction and ApplyLoadPlan; SampleKeys returns nil afterwards.
func (p *LoadPlan) ReleaseSample() { p.sample = nil }

// Triples reports the number of triples the plan covers.
func (p *LoadPlan) Triples() int64 { return int64(len(p.ts)) }

// Postings reports the number of index entries the plan will store.
func (p *LoadPlan) Postings() int { return p.postings }

// Windows reports the plan's window count: 1 for any non-empty dataset
// under a budget <= 0, 0 for an empty one.
func (p *LoadPlan) Windows() int { return len(p.windows) }

// Budget reports the byte budget the plan was built with (0: one window).
func (p *LoadPlan) Budget() int64 { return p.budget }

// PeakEntryBytes reports the modeled high-water mark of resident extracted
// entries: the largest window's footprint. Modeled (entry count × a fixed
// per-entry footprint), so it is deterministic across runs and comparable
// between budgets.
func (p *LoadPlan) PeakEntryBytes() int64 { return p.peakBytes }

// ApplyLoadPlan bulk-loads a plan into the store's grid with up to `workers`
// concurrent extraction goroutines and shard appliers (<= 0 means
// GOMAXPROCS), and adopts the plan's storage statistics and attribute set.
// It is intended for a freshly built store over a grid balanced with the
// plan's SampleKeys; applying a plan to a store that already holds data
// double-counts catalog postings for attributes both have seen. The stored
// state equals that of a routed InsertTuple of every tuple, for any budget
// and worker count.
func (s *Store) ApplyLoadPlan(p *LoadPlan, workers int) error {
	if p.cfg != s.cfg {
		return fmt.Errorf("ops: plan built for store config %+v, store has %+v", p.cfg, s.cfg)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	defer s.clearCaches() // the write set is the whole plan
	n := len(p.windows)
	for i := range n {
		// The last window goes first, with the entries the planner kept.
		w := p.windows[(n-1+i)%n]
		entries := p.entries
		p.entries = nil
		if entries == nil {
			entries = p.extract(w, workers)
			sortEntries(entries, workers)
		}
		if err := s.grid.BulkLoad(entries, workers); err != nil {
			return fmt.Errorf("ops: applying load window [%d,%d): %w", w.lo, w.hi, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range p.counts {
		s.counts[k] += v
	}
	s.loaded += int64(len(p.ts))
	for a := range p.attrs {
		s.attrsSeen[a] = true
	}
	return nil
}
