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
//     store keeps and ops.PlanLoadStream emits. One pass checks it, and any
//     other batch is sorted once, on a copy. This is the only pass over the
//     whole batch before the appliers;
//  1. rank → leaf: hashing collapses every key to a rank, and a table filled
//     from the (far fewer) leaves names each rank's responsible leaf;
//  2. shard: the hash is monotone and every leaf covers one contiguous run
//     of ranks, so in a sorted batch each partition's entries form one
//     contiguous run. Its end is a binary search for the partition's last
//     rank boundary; nothing is permuted or copied;
//  3. apply: one owner goroutine per partition merges its run into every
//     member store under a single lock, rebuilding the tree bottom-up.
//     Replicas alias the run; nothing is copied per member, and no two
//     goroutines ever touch the same partition store, so there is no
//     cross-shard lock contention.
//
// BulkLoad reads one membership epoch: it is safe concurrently with queries,
// and a batch racing a split of the same partition lands in the pre-split
// store only (the documented epoch trade-off).

import (
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"

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

	// Pass 0: every pass below relies on (key, posting) order. An unsorted
	// batch is sorted on a copy, so the caller's slice stays as it was.
	for i := 1; i < len(entries); i++ {
		if compareEntries(&entries[i-1], &entries[i]) > 0 {
			entries = slices.Clone(entries)
			slices.SortFunc(entries, func(a, b BulkEntry) int { return compareEntries(&a, &b) })
			break
		}
	}
	shards, err := g.shardBatch(v, entries)
	if err != nil {
		return err
	}

	// Pass 3 (parallel): one owner goroutine per partition shard.
	work := make(chan shard, len(shards))
	for _, s := range shards {
		work <- s
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				g.applyShard(v, s.leaf, entries[s.lo:s.hi])
			}
		}()
	}
	wg.Wait()
	return nil
}

// shard is one partition's run entries[lo:hi] of a sorted batch.
type shard struct {
	leaf, lo, hi int
}

// shardBatch cuts a (key, posting)-sorted batch into one contiguous run per
// partition it touches, in rank order. It reads the batch only at the binary
// searches for run ends. A run of ranks no leaf covers fails the batch with
// ErrNoPartition before any store is touched.
func (g *Grid) shardBatch(v *view, entries []BulkEntry) ([]shard, error) {
	// Pass 1: rank → leaf table. Ranks scale with distinct sample keys, so
	// the table is filled by iterating the (far fewer) leaves: a leaf whose
	// hashed-space path p has l <= hash-width bits covers exactly the
	// contiguous rank interval [p << (width-l), (p+1) << (width-l)) — no
	// per-rank key allocation or leaf search. Deeper leaves (possible only
	// in degenerate tries) fall back to the per-rank search, which names
	// one leaf per rank.
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

	// Pass 2: walk the table's runs of equal leaf; the batch entries of a
	// run's ranks [r, end) end where rank end begins.
	var shards []shard
	lo := 0
	for r := 0; r < len(rankLeaf) && lo < len(entries); {
		li := rankLeaf[r]
		end := r + 1
		for end < len(rankLeaf) && rankLeaf[end] == li {
			end++
		}
		hi := len(entries)
		if end < len(rankLeaf) {
			hi = lo + sort.Search(len(entries)-lo, func(i int) bool {
				return g.h.reachesRank(entries[lo+i].Key, end)
			})
		}
		if hi > lo {
			if li < 0 {
				return nil, ErrNoPartition
			}
			shards = append(shards, shard{leaf: int(li), lo: lo, hi: hi})
		}
		lo, r = hi, end
	}
	return shards, nil
}

// applyShard merges one partition's run of a sorted batch into every member
// store as a single batch in (key, posting) order, the stores' own order.
// Members read the shared run through an index closure; nothing is copied
// per replica.
func (g *Grid) applyShard(v *view, li int, run []BulkEntry) {
	at := func(j int) (keys.Key, triples.Posting) {
		e := &run[j]
		return e.Key, e.Posting
	}
	for _, id := range v.leaves.at(li).peers {
		v.peers.at(id).localMergeSorted(len(run), at)
	}
}
