package pgrid

// Parallel merge sort for construction-time key sets.
//
// Build sorts the whole balancing sample (O(corpus) keys); a serial
// comparison sort of it dominates wall-clock at million-tuple scale. The
// helpers here sort by splitting into contiguous runs, sorting runs on
// goroutines, and merging pairwise. The output is deterministic: the same
// sorted sequence as sort.Slice (equal keys are interchangeable values).

import (
	"sort"
	"sync"

	"repro/internal/keys"
)

// parallelSortMin is the input size below which the serial sort is used; the
// goroutine and merge overhead only pays for itself on large batches.
const parallelSortMin = 1 << 13

// runBounds splits [0, n) into at most w contiguous runs of near-equal size.
func runBounds(n, w int) []int {
	if w > n {
		w = n
	}
	bounds := make([]int, 0, w+1)
	for i := 0; i <= w; i++ {
		bounds = append(bounds, i*n/w)
	}
	return bounds
}

// sortKeysParallel sorts ks ascending (keys.Key.Less) using up to `workers`
// goroutines; workers <= 1 runs the serial sort.
func sortKeysParallel(ks []keys.Key, workers int) {
	if workers <= 1 || len(ks) < parallelSortMin {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Less(ks[j]) })
		return
	}
	bounds := runBounds(len(ks), workers)
	var wg sync.WaitGroup
	for r := 0; r+1 < len(bounds); r++ {
		run := ks[bounds[r]:bounds[r+1]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sort.Slice(run, func(i, j int) bool { return run[i].Less(run[j]) })
		}()
	}
	wg.Wait()
	buf := make([]keys.Key, len(ks))
	mergeRuns(len(ks), bounds, func(src bool, l, m, h int) {
		a, b := ks, buf
		if !src {
			a, b = buf, ks
		}
		i, j, o := l, m, l
		for i < m && j < h {
			if a[i].Compare(a[j]) <= 0 {
				b[o] = a[i]
				i++
			} else {
				b[o] = a[j]
				j++
			}
			o++
		}
		copy(b[o:], a[i:m])
		copy(b[o+m-i:h], a[j:h])
	}, func(src bool, l, h int) {
		if src {
			copy(buf[l:h], ks[l:h])
		} else {
			copy(ks[l:h], buf[l:h])
		}
	})
}

// mergeRuns folds sorted runs (delimited by bounds) into one by rounds of
// concurrent pairwise merges, ping-ponging between the caller's two buffers.
// merge(src, l, m, h) merges [l,m) and [m,h) of the src side into the other;
// carry(src, l, h) copies an unpaired run across. src starts true (the
// original slice) and flips every round; mergeRuns guarantees the final
// result lands back in the original slice (an odd number of rounds is
// finished with a full carry).
func mergeRuns(n int, bounds []int, merge func(src bool, l, m, h int), carry func(src bool, l, h int)) {
	src := true
	for len(bounds) > 2 {
		next := make([]int, 0, len(bounds)/2+2)
		var wg sync.WaitGroup
		r := 0
		for ; r+2 < len(bounds); r += 2 {
			l, m, h := bounds[r], bounds[r+1], bounds[r+2]
			next = append(next, l)
			wg.Add(1)
			go func() {
				defer wg.Done()
				merge(src, l, m, h)
			}()
		}
		if r+1 < len(bounds) {
			l, h := bounds[r], bounds[r+1]
			next = append(next, l)
			wg.Add(1)
			go func() {
				defer wg.Done()
				carry(src, l, h)
			}()
		}
		next = append(next, n)
		wg.Wait()
		bounds = next
		src = !src
	}
	if !src {
		// Result sits in the scratch buffer; copy it home.
		carry(false, 0, n)
	}
}
