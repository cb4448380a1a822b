package pgrid

// Sharded parallel bulk load.
//
// The load phase dominates wall-clock time when building large engines (the
// paper treats it as free, but every string triple fans out into ~8+ postings
// replicated across a partition's members). A routed insert pays, per
// posting, one epoch snapshot, one hash, one leaf search and one per-store
// lock acquisition. BulkLoad amortizes all four over a whole batch:
//
//  0. order: the batch is taken in (key, posting) order — the order every
//     store keeps and ops.PlanLoadStream emits; any other batch is sorted
//     once, on a copy;
//  1. pre-hash: every key resolves to its responsible leaf through a
//     rank→leaf table (a rank cursor advanced along the sorted batch against
//     the hash anchors, one array lookup instead of a leaf search), in
//     parallel chunks;
//  2. shard: a counting sort groups entry indices by leaf, preserving batch
//     order — already the stores' order — within each shard;
//  3. apply: one owner goroutine per partition merges its shard into every
//     member store under a single lock, rebuilding the tree bottom-up.
//     Replicas alias the shard's key/posting slices; nothing is copied per
//     member, and no two goroutines ever touch the same partition store, so
//     there is no cross-shard lock contention.
//
// BulkLoad reads one membership epoch: it is safe concurrently with queries,
// and a batch racing a split of the same partition lands in the pre-split
// store only (the documented epoch trade-off).

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/triples"
)

// BulkEntry pairs a storage key with its posting for batched loading.
type BulkEntry struct {
	Key     keys.Key
	Posting triples.Posting
}

// compareEntries orders bulk entries by key, then posting: the order every
// peer store keeps its entries in.
func compareEntries(a, b *BulkEntry) int {
	if c := a.Key.Compare(b.Key); c != 0 {
		return c
	}
	return a.Posting.Compare(&b.Posting)
}

// ErrNoPartition reports a key no partition of the current epoch covers
// (impossible in a complete trie; it surfaces corrupted builds).
var ErrNoPartition = errors.New("pgrid: no partition covers key")

// BulkLoad stores a batch of postings at every peer of each responsible
// partition without routing or accounting, sharded by partition and applied
// with at most `workers` concurrent goroutines (<= 0 means GOMAXPROCS). The
// resulting stores hold exactly what a routed Insert of every entry leaves,
// in the same order, for any worker count and any batch order: stores order
// entries by (key, posting), whichever way they arrive. Every shard merges
// into its stores by a bottom-up rebuild, so stores stay at bulk occupancy
// across any number of batches.
//
// A batch not already sorted by (key, posting) — the order
// ops.PlanLoadStream emits — is sorted once on a copy; the caller's slice is
// never reordered.
func (g *Grid) BulkLoad(entries []BulkEntry, workers int) error {
	if len(entries) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	v := g.snapshot()

	// Every pass below relies on (key, posting) order. An unsorted batch is
	// sorted on a copy, so the caller's slice stays as it was.
	for i := 1; i < len(entries); i++ {
		if compareEntries(&entries[i-1], &entries[i]) > 0 {
			entries = slices.Clone(entries)
			slices.SortFunc(entries, func(a, b BulkEntry) int { return compareEntries(&a, &b) })
			break
		}
	}

	// Rank → leaf table: hashing collapses every key to a rank, so per-entry
	// responsibility is one table lookup instead of a leaf search. Ranks
	// scale with distinct sample keys, so the table is filled by iterating
	// the (far fewer) leaves: a leaf whose hashed-space path p has l <=
	// hash-width bits covers exactly the contiguous rank interval
	// [p << (width-l), (p+1) << (width-l)) — no per-rank key allocation or
	// leaf search. Deeper leaves (possible only in degenerate tries) fall
	// back to the per-rank search.
	rankLeaf := make([]int32, g.h.ranks())
	for r := range rankLeaf {
		rankLeaf[r] = -1
	}
	v.leaves.forEach(func(li int, lf *leafInfo) {
		path := lf.path
		l := path.Len()
		if l > g.h.width {
			return
		}
		val := 0
		for b := 0; b < l; b++ {
			val = val<<1 | path.Bit(b)
		}
		shift := uint(g.h.width - l)
		lo, hi := val<<shift, (val+1)<<shift
		if hi > len(rankLeaf) {
			hi = len(rankLeaf)
		}
		for r := lo; r < hi; r++ {
			rankLeaf[r] = int32(li)
		}
	})
	for r, li := range rankLeaf {
		if li < 0 {
			rankLeaf[r] = int32(v.leafForHashed(g.h.rankKey(r)))
		}
	}

	// Pass 1 (parallel): resolve every key to its responsible leaf. Each
	// chunk searches its first rank and advances a cursor from there.
	leafOf := make([]int32, len(entries))
	var uncovered atomic.Bool
	parallelRanges(len(entries), workers, func(lo, hi int) {
		rank := g.h.rank(entries[lo].Key)
		for i := lo; i < hi; i++ {
			rank = g.h.advanceRank(rank, entries[i].Key)
			li := rankLeaf[rank]
			if li < 0 {
				uncovered.Store(true)
				return
			}
			leafOf[i] = li
		}
	})
	if uncovered.Load() {
		return ErrNoPartition
	}

	// Pass 2 (serial counting sort): group entry indices by leaf, keeping
	// batch order inside each shard.
	nLeaves := v.leaves.len()
	counts := make([]int, nLeaves)
	for _, li := range leafOf {
		counts[li]++
	}
	offs := make([]int, nLeaves+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	order := make([]int32, len(entries))
	next := append([]int(nil), offs[:nLeaves]...)
	for i, li := range leafOf {
		order[next[li]] = int32(i)
		next[li]++
	}

	// Pass 3 (parallel): one owner goroutine per partition shard.
	var wg sync.WaitGroup
	work := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := range work {
				g.applyShard(v, li, entries, order[offs[li]:offs[li+1]])
			}
		}()
	}
	for li := 0; li < nLeaves; li++ {
		if counts[li] > 0 {
			work <- li
		}
	}
	close(work)
	wg.Wait()
	return nil
}

// applyShard merges one partition's shard of entry indices into every member
// store as a single batch in (key, posting) order, the stores' own order: the
// counting sort kept the sorted batch's order. Members read the shared shard
// through an index closure; nothing is copied per replica.
func (g *Grid) applyShard(v *view, li int, entries []BulkEntry, shard []int32) {
	at := func(j int) (keys.Key, triples.Posting) {
		e := &entries[shard[j]]
		return e.Key, e.Posting
	}
	for _, id := range v.leaves.at(li).peers {
		v.peers.at(id).localMergeSorted(len(shard), at)
	}
}

// parallelRanges runs fn over contiguous chunks of [0, n) on up to `workers`
// goroutines, returning when all chunks are done. workers <= 1 runs inline.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
