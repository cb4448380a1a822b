package btree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

// val is the tests' value type: an int whose Compare counts its calls, so a
// test can bound the comparisons an operation makes.
type val int

var compares int

func (a *val) Compare(b *val) int {
	compares++
	return cmp.Compare(*a, *b)
}

func key(i int) keys.Key {
	return keys.StringKey(fmt.Sprintf("%08d", i))
}

func TestEmptyTree(t *testing.T) {
	tr := New[val]()
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.Get(key(1)); len(got) != 0 {
		t.Errorf("Get on empty = %v", got)
	}
	if tr.Delete(key(1), 0) {
		t.Error("Delete on empty returned true")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertGetSequential(t *testing.T) {
	tr := New[val]()
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), val(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := tr.Get(key(i))
		if len(got) != 1 || got[0] != val(i) {
			t.Fatalf("Get(%d) = %v", i, got)
		}
	}
}

func TestInsertReverseOrder(t *testing.T) {
	tr := New[val]()
	const n = 500
	for i := n - 1; i >= 0; i-- {
		tr.Insert(key(i), val(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	i := 0
	tr.Ascend(func(k keys.Key, v val) bool {
		if v != val(i) {
			t.Fatalf("ascend order broken at %d: got %d", i, v)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("ascend visited %d, want %d", i, n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New[val]()
	k := keys.StringKey("dup")
	// Descending values: the run must come back in value order, not in
	// insertion order.
	for i := 99; i >= 0; i-- {
		tr.Insert(k, val(i))
	}
	// Interleave other keys so duplicates straddle node boundaries.
	for i := 0; i < 200; i++ {
		tr.Insert(key(i), val(-i))
	}
	got := tr.Get(k)
	if len(got) != 100 {
		t.Fatalf("Get(dup) returned %d values, want 100", len(got))
	}
	for i, v := range got {
		if v != val(i) {
			t.Fatalf("Get(dup)[%d] = %d: values under one key must come back in value order", i, v)
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New[val]()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), val(i))
	}
	count := 0
	tr.Ascend(func(keys.Key, val) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d, want 10", count)
	}
}

func TestAscendGreaterOrEqual(t *testing.T) {
	tr := New[val]()
	for i := 0; i < 100; i += 2 { // even keys only
		tr.Insert(key(i), val(i))
	}
	var got []val
	tr.AscendGreaterOrEqual(key(51), func(_ keys.Key, v val) bool {
		got = append(got, v)
		return true
	})
	var want []val
	for i := 52; i < 100; i += 2 {
		want = append(want, val(i))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[val]()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), val(i))
	}
	var got []val
	iv := keys.Interval{Lo: key(10), Hi: key(20)}
	tr.AscendRange(iv, func(_ keys.Key, v val) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Errorf("range [10,20] = %v", got)
	}
}

func TestAscendRangeIncludesHiExtensions(t *testing.T) {
	tr := New[val]()
	words := []string{"car#a", "car#b", "car#bzz", "car#c", "car#d"}
	for i, s := range words {
		tr.Insert(keys.StringKey(s), val(i))
	}
	var got []string
	iv := keys.Interval{Lo: keys.StringKey("car#a"), Hi: keys.StringKey("car#b")}
	tr.AscendRange(iv, func(_ keys.Key, v val) bool {
		got = append(got, words[v])
		return true
	})
	want := []string{"car#a", "car#b", "car#bzz"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New[val]()
	words := []string{"ca", "car", "carpet", "cart", "cat", "dog"}
	for i, w := range words {
		tr.Insert(keys.StringKey(w), val(i))
	}
	var got []string
	tr.AscendPrefix(keys.StringKey("car"), func(_ keys.Key, v val) bool {
		got = append(got, words[v])
		return true
	})
	want := []string{"car", "carpet", "cart"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("prefix scan = %v, want %v", got, want)
	}
}

func TestDeleteSimple(t *testing.T) {
	tr := New[val]()
	for i := 0; i < 50; i++ {
		tr.Insert(key(i), val(i))
	}
	if tr.Delete(key(25), 24) {
		t.Fatal("delete of a value the key does not hold returned true")
	}
	if !tr.Delete(key(25), 25) {
		t.Fatal("delete existing returned false")
	}
	if tr.Len() != 49 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
	if got := tr.Get(key(25)); len(got) != 0 {
		t.Fatalf("deleted key still present: %v", got)
	}
	if tr.Delete(key(25), 25) {
		t.Fatal("deleting missing key returned true")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteWithMatch deletes one named value out of a run of duplicates.
func TestDeleteWithMatch(t *testing.T) {
	tr := New[val]()
	k := keys.StringKey("multi")
	for i := 0; i < 10; i++ {
		tr.Insert(k, val(i))
	}
	if !tr.Delete(k, 7) {
		t.Fatal("delete of a held value returned false")
	}
	got := tr.Get(k)
	if want := []val{0, 1, 2, 3, 4, 5, 6, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("after deleting 7: %v, want %v", got, want)
	}
	if tr.Delete(k, 99) {
		t.Fatal("delete of a value the run does not hold returned true")
	}
}

func TestDeleteAllAscending(t *testing.T) {
	tr := New[val]()
	const n = 600
	for i := 0; i < n; i++ {
		tr.Insert(key(i), val(i))
	}
	for i := 0; i < n; i++ {
		if !tr.Delete(key(i), val(i)) {
			t.Fatalf("delete %d failed", i)
		}
		if i%97 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after deleting %d: %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
}

func TestDeleteAllDescending(t *testing.T) {
	tr := New[val]()
	const n = 600
	for i := 0; i < n; i++ {
		tr.Insert(key(i), val(i))
	}
	for i := n - 1; i >= 0; i-- {
		if !tr.Delete(key(i), val(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// model-based randomized test: the tree must behave like a sorted multiset.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New[val]()
	model := map[int][]val{} // key -> sorted multiset of values

	for step := 0; step < 20000; step++ {
		ki := rng.Intn(200)
		k := key(ki)
		vs := model[ki]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert
			v := val(rng.Intn(1000))
			tr.Insert(k, v)
			i, _ := slices.BinarySearch(vs, v)
			model[ki] = slices.Insert(vs, i, v)
		case 6, 7, 8: // delete a held value, or a missing one
			v := val(rng.Intn(1000))
			if len(vs) > 0 && rng.Intn(4) > 0 {
				v = vs[rng.Intn(len(vs))]
			}
			i, want := slices.BinarySearch(vs, v)
			if got := tr.Delete(k, v); got != want {
				t.Fatalf("step %d: Delete(%s, %d) = %v, want %v", step, k, v, got, want)
			}
			if want {
				model[ki] = slices.Delete(vs, i, i+1)
			}
		case 9: // verify a random key's run
			if got := tr.Get(k); !slices.Equal(got, vs) {
				t.Fatalf("step %d: Get(%s) = %v, want %v", step, k, got, vs)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, vs := range model {
		total += len(vs)
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, model total = %d", tr.Len(), total)
	}
}

// pair is one (key, value) entry of the sorted-slice model.
type pair struct {
	k int
	v val
}

func comparePairs(a, b pair) int {
	if c := cmp.Compare(a.k, b.k); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// TestDeleteAgainstSortedSliceModel is the seeded property test of the
// (key, value) order: inserts and deletes over eight keys and few values —
// long equal-key runs and repeated identical pairs — must leave the tree
// equal, entry for entry, to a sorted slice of pairs, with every structural
// invariant holding after every step.
func TestDeleteAgainstSortedSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New[val]()
		var model []pair
		for step := 0; step < 2000; step++ {
			p := pair{k: rng.Intn(8), v: val(rng.Intn(64))}
			if len(model) > 0 && rng.Intn(5) < 2 {
				p = model[rng.Intn(len(model))] // delete a held pair
			}
			i, held := slices.BinarySearchFunc(model, p, comparePairs)
			// 55 % inserts grow the tree to a few hundred entries (several
			// levels, runs of ~25 per key) without making every step's full
			// comparison expensive.
			if rng.Intn(20) < 11 {
				tr.Insert(key(p.k), p.v)
				model = slices.Insert(model, i, p)
			} else {
				if got := tr.Delete(key(p.k), p.v); got != held {
					t.Fatalf("seed %d step %d: Delete(%v) = %v, want %v", seed, step, p, got, held)
				}
				if held {
					model = slices.Delete(model, i, i+1)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if tr.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, tr.Len(), len(model))
			}
			j := 0
			tr.Ascend(func(k keys.Key, v val) bool {
				if want := model[j]; !k.Equal(key(want.k)) || v != want.v {
					t.Fatalf("seed %d step %d: entry %d is (%s, %d), want %v", seed, step, j, k, v, want)
				}
				j++
				return true
			})
		}
	}
}

// TestDeleteDescendsToItsEntry guards the point of the (key, value) order:
// deleting from a 50 000-entry run under one key costs a root-to-leaf
// descent, not a walk of the run.
func TestDeleteDescendsToItsEntry(t *testing.T) {
	const n = 50_000
	k := keys.StringKey("one key")
	vs := make([]val, n)
	ks := make([]keys.Key, n)
	for i := range vs {
		ks[i], vs[i] = k, val(i)
	}
	tr := New[val]()
	tr.BulkLoadSorted(ks, vs)
	bound := int(4 * math.Log2(n))
	for _, v := range []val{n - 1, 0, n / 2} {
		compares = 0
		if !tr.Delete(k, v) {
			t.Fatalf("Delete(%d) = false", v)
		}
		if compares > bound {
			t.Errorf("Delete(%d) made %d value comparisons, want <= 4 log2 n = %d", v, compares, bound)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSortedTraversal(t *testing.T) {
	// Property: ascending traversal yields the sorted input multiset.
	f := func(vals []uint16) bool {
		tr := New[val]()
		for _, v := range vals {
			tr.Insert(keys.NumberKey(float64(v)), val(v))
		}
		var got []val
		tr.Ascend(func(_ keys.Key, v val) bool {
			got = append(got, v)
			return true
		})
		if len(got) != len(vals) {
			return false
		}
		want := append([]uint16(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != val(want[i]) {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRangeMatchesFilter(t *testing.T) {
	// Property: AscendRange equals brute-force filtering with iv.Contains.
	f := func(vals []uint16, lo, hi uint16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New[val]()
		for _, v := range vals {
			tr.Insert(keys.NumberKey(float64(v)), val(v))
		}
		iv := keys.Interval{Lo: keys.NumberKey(float64(lo)), Hi: keys.NumberKey(float64(hi))}
		var got []val
		tr.AscendRange(iv, func(_ keys.Key, v val) bool {
			got = append(got, v)
			return true
		})
		var want []val
		sorted := append([]uint16(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, v := range sorted {
			if v >= lo && v <= hi {
				want = append(want, val(v))
			}
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := New[val]()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), val(i))
	}
	// With degree 16, height of 100k entries must be small.
	if h := tr.height(); h > 6 {
		t.Errorf("height = %d for %d entries, want <= 6", h, n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRandomizedHeavy(t *testing.T) {
	// Hammer deletion paths: many duplicates plus interleaved uniques.
	rng := rand.New(rand.NewSource(7))
	tr := New[val]()
	type kv struct {
		k int
		v val
	}
	var live []kv
	for i := 0; i < 5000; i++ {
		k := rng.Intn(50) // heavy duplication
		tr.Insert(key(k), val(i))
		live = append(live, kv{k, val(i)})
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for i, e := range live {
		if !tr.Delete(key(e.k), e.v) {
			t.Fatalf("failed to delete (%d,%d)", e.k, e.v)
		}
		if i%503 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("at %d: %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after full drain", tr.Len())
	}
}

// TestBulkLoadSortedMatchesInserts checks, across a sweep of sizes spanning
// the single-node, two-level and three-level regimes, that the bottom-up bulk
// build yields a structurally valid tree whose iteration order — including
// the value order among duplicate keys — is identical to sequential Insert.
func TestBulkLoadSortedMatchesInserts(t *testing.T) {
	sizes := []int{0, 1, 2, 15, 31, 32, 33, 50, 56, 75, 76, 100, 200, 777, 1000, 5000}
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		ks := make([]keys.Key, n)
		vs := make([]val, n)
		for i := 0; i < n; i++ {
			// ~n/4 distinct keys so duplicate runs are long enough to
			// straddle node boundaries.
			ks[i] = key(rng.Intn(n/4 + 1))
			vs[i] = val(i)
		}
		// Stable by key over ascending values: (key, value) order.
		sort.SliceStable(vs, func(a, b int) bool { return ks[vs[a]].Less(ks[vs[b]]) })
		sorted := make([]keys.Key, n)
		for i, v := range vs {
			sorted[i] = ks[v]
		}

		bulk := New[val]()
		bulk.BulkLoadSorted(sorted, vs)
		ref := New[val]()
		for i := range sorted {
			ref.Insert(sorted[i], vs[i])
		}

		if bulk.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, bulk.Len())
		}
		if err := bulk.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, want := collect(bulk), collect(ref)
		if !slices.EqualFunc(got, want, sameEntry) {
			t.Fatalf("n=%d: bulk-built and inserted trees iterate differently", n)
		}
	}
}

// TestBulkLoadSortedIntoNonEmpty checks the fallback path: loading into a
// tree that already has entries behaves like repeated Insert.
func TestBulkLoadSortedIntoNonEmpty(t *testing.T) {
	tr := New[val]()
	for i := 0; i < 100; i += 2 {
		tr.Insert(key(i), val(i))
	}
	var ks []keys.Key
	var vs []val
	for i := 1; i < 100; i += 2 {
		ks = append(ks, key(i))
		vs = append(vs, val(i))
	}
	tr.BulkLoadSorted(ks, vs)
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := tr.Get(key(i)); len(got) != 1 || got[0] != val(i) {
			t.Fatalf("Get(%d) = %v", i, got)
		}
	}
}

// TestBulkLoadSortedRejectsUnsorted pins the misuse guard, for keys out of
// order and for values out of order under one key, on the empty-tree build
// and on the per-entry path into a large tree.
func TestBulkLoadSortedRejectsUnsorted(t *testing.T) {
	big := make([]keys.Key, 100)
	bigVals := make([]val, 100)
	for i := range big {
		big[i], bigVals[i] = key(i), val(i)
	}
	cases := []struct {
		name string
		pre  int
		ks   []keys.Key
		vs   []val
	}{
		{"keys", 0, []keys.Key{key(2), key(1)}, []val{0, 0}},
		{"ties", 0, []keys.Key{key(1), key(1)}, []val{2, 1}},
		{"ties into a large tree", 100, []keys.Key{key(500), key(500)}, []val{2, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := New[val]()
			tr.BulkLoadSorted(big[:c.pre], bigVals[:c.pre])
			defer func() {
				if recover() == nil {
					t.Fatalf("BulkLoadSortedFunc accepted %s out of order", c.name)
				}
			}()
			tr.BulkLoadSortedFunc(len(c.ks), func(i int) (keys.Key, val) { return c.ks[i], c.vs[i] })
		})
	}
}

// TestBulkLoadSortedThenMutate exercises inserts and deletes after a bulk
// build, confirming the built structure rebalances like an incrementally
// grown one.
func TestBulkLoadSortedThenMutate(t *testing.T) {
	const n = 1500
	ks := make([]keys.Key, n)
	vs := make([]val, n)
	for i := 0; i < n; i++ {
		ks[i] = key(i)
		vs[i] = val(i)
	}
	tr := New[val]()
	tr.BulkLoadSorted(ks, vs)
	for i := 0; i < n; i += 3 {
		if !tr.Delete(key(i), val(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	for i := n; i < n+300; i++ {
		tr.Insert(key(i), val(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if want := n - (n+2)/3 + 300; tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
}
