package ops

// Parallel top-level radix pass for the load planner's entry sort.
//
// The planner's MSD radix sort is the serial tail of load planning once extraction
// is parallel. The first pass is the expensive one — it touches every entry —
// and it parallelizes without changing a single output byte: each worker
// histograms a contiguous range of idx, a prefix sum over (bucket, worker)
// yields every worker's exact scatter positions, and the scatter then writes
// each index to the same slot the serial pass would (serial scatter preserves
// idx order within a bucket; contiguous worker ranges concatenated in worker
// order are idx order). After the split, top-level buckets occupy disjoint
// idx/buf ranges, so their remaining passes run concurrently on a bounded
// pool with the unchanged serial code.

import (
	"sync"

	"repro/internal/pgrid"
)

// radixParallelMin is the input size below which the serial sort runs; one
// histogram+scatter pass over a small input is cheaper than coordinating
// goroutines.
const radixParallelMin = 1 << 14

// radixSortEntryIdxPar is radixSortEntryIdx with the top-level pass and the
// per-bucket recursion spread over up to `workers` goroutines. Output is
// byte-identical to the serial sort for any worker count.
func radixSortEntryIdxPar(es []pgrid.BulkEntry, idx []int32, workers int) {
	if workers <= 1 || len(idx) < radixParallelMin {
		radixSortEntryIdx(es, idx)
		return
	}
	buf := make([]int32, len(idx))
	if workers > len(idx) {
		workers = len(idx)
	}
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * len(idx) / workers
	}

	// Pass 1: per-worker histograms over contiguous ranges of idx.
	counts := make([][257]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &counts[w]
			for _, i := range idx[bounds[w]:bounds[w+1]] {
				c[entryBucket(es, i, 0)]++
			}
		}(w)
	}
	wg.Wait()

	// Prefix sums: global bucket offsets, then each worker's write cursor
	// within each bucket (earlier workers' items first — idx order).
	var total [257]int32
	for w := range counts {
		for b := 0; b < 257; b++ {
			total[b] += counts[w][b]
		}
	}
	var offs [258]int32
	for b := 0; b < 257; b++ {
		offs[b+1] = offs[b] + total[b]
	}
	pos := make([][257]int32, workers)
	var run [257]int32
	copy(run[:], offs[:257])
	for w := 0; w < workers; w++ {
		pos[w] = run
		for b := 0; b < 257; b++ {
			run[b] += counts[w][b]
		}
	}

	// Pass 2: scatter. Disjoint write positions by construction.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &pos[w]
			for _, i := range idx[bounds[w]:bounds[w+1]] {
				b := entryBucket(es, i, 0)
				buf[p[b]] = i
				p[b]++
			}
		}(w)
	}
	wg.Wait()
	copy(idx, buf)

	// Exhausted keys (no byte at depth 0), ordered as the serial pass orders
	// bucket 0.
	if total[0] > 1 {
		sortExhausted(es, idx[:total[0]])
	}

	// Remaining passes: each top-level bucket owns a disjoint range, so the
	// serial recursion runs per bucket on a bounded pool.
	sem := make(chan struct{}, workers)
	for b := 1; b < 257; b++ {
		if total[b] <= 1 {
			continue
		}
		lo, hi := offs[b], offs[b+1]
		sem <- struct{}{}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			radixSortPass(es, idx[lo:hi], buf[lo:hi], 1)
			<-sem
		}(lo, hi)
	}
	wg.Wait()
}
