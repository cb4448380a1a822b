// Package btree provides the in-memory ordered index every simulated peer
// uses as its local datastore.
//
// P-Grid peers must answer prefix and range scans over their key-space
// partition (Section 2 of the paper: order-preserving hashing "clusters
// related data items" so that "range queries can be implemented very
// efficiently"). A peer-local store therefore needs ordered iteration, not
// just point lookups. This package implements a classic B-tree over keys.Key
// with duplicate keys allowed (one key can carry many postings: several
// triples may hash to the same key, e.g. all triples sharing a q-gram).
//
// Entries are ordered by (key, value): the values under one key sort by the
// value type's own Compare, not by insertion order. That makes every entry
// addressable, so Delete descends to the one it removes in O(log n)
// comparisons however long the key's run is.
//
// The tree is not safe for concurrent mutation; peers guard their store with
// their own mutex (see internal/pgrid).
package btree

import (
	"fmt"

	"repro/internal/keys"
)

// degree is the minimum branching factor t: nodes other than the root hold
// between t-1 and 2t-1 entries. 16 keeps nodes within a few cache lines while
// staying shallow for the corpus sizes the experiments use.
const degree = 16

const (
	maxEntries = 2*degree - 1
	minEntries = degree - 1
)

// Ordered is the constraint on a tree's value type V, met through its
// pointer: Compare is a total order on values that returns 0 only for equal
// ones. Both sides are pointers, so large values compare without copies.
type Ordered[V any] interface {
	*V
	Compare(*V) int
}

type entry[V any] struct {
	key keys.Key
	val V
}

type node[V any] struct {
	entries  []entry[V]
	children []*node[V] // nil for leaves, len(entries)+1 otherwise
}

func (n *node[V]) leaf() bool { return len(n.children) == 0 }

// Tree is a B-tree multimap from keys.Key to values of type V, ordered by
// (key, value). The zero value is not usable; call New.
type Tree[V any, P Ordered[V]] struct {
	root *node[V]
	size int
	// probe holds the value an Insert or Delete is placing. Comparisons go
	// through P's method, which the compiler cannot see into, so a pointer
	// to the caller's copy would move that copy to the heap on every call;
	// a slot owned by the tree does not. It is allocated on the first write,
	// so trees that are only bulk-built and read never carry it.
	probe *V
}

// New returns an empty tree.
func New[V any, P Ordered[V]]() *Tree[V, P] {
	return &Tree[V, P]{root: &node[V]{}}
}

// Len reports the number of stored entries (duplicates counted).
func (t *Tree[V, P]) Len() int { return t.size }

// compare orders entry e against (k, *v): by key, then — on equal keys
// only — by value.
func (t *Tree[V, P]) compare(e *entry[V], k keys.Key, v *V) int {
	if c := e.key.Compare(k); c != 0 {
		return c
	}
	return P(&e.val).Compare(v)
}

// search returns the index of the first entry in n that sorts at or after
// (k, *v), and whether that entry equals the pair. Equal pairs hold
// identical values (Compare is 0 only for those), so Insert may place a pair
// there, before its equals, without changing what the tree iterates.
func (t *Tree[V, P]) search(n *node[V], k keys.Key, v *V) (int, bool) {
	lo, hi := 0, len(n.entries)
	found := false
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := t.compare(&n.entries[mid], k, v); c < 0 {
			lo = mid + 1
		} else {
			// hi only moves down, so the comparison recorded last is the
			// one against the final answer.
			hi, found = mid, c == 0
		}
	}
	return lo, found
}

// lowerBound returns the index of the first entry in n whose key sorts at or
// after k.
func lowerBound[V any](n *node[V], k keys.Key) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.entries[mid].key.Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds an entry. Duplicate keys, and duplicate (key, value) pairs,
// are allowed.
func (t *Tree[V, P]) Insert(k keys.Key, v V) {
	if len(t.root.entries) == maxEntries {
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.root.splitChild(0)
	}
	t.insertNonFull(t.root, k, t.place(v))
	*t.probe = *new(V)
	t.size++
}

// place copies v into the tree's probe slot and returns the slot.
func (t *Tree[V, P]) place(v V) *V {
	if t.probe == nil {
		t.probe = new(V)
	}
	*t.probe = v
	return t.probe
}

func (t *Tree[V, P]) insertNonFull(n *node[V], k keys.Key, v *V) {
	for {
		i, _ := t.search(n, k, v)
		if n.leaf() {
			n.entries = append(n.entries, entry[V]{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = entry[V]{key: k, val: *v}
			return
		}
		if len(n.children[i].entries) == maxEntries {
			n.splitChild(i)
			if t.compare(&n.entries[i], k, v) <= 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// splitChild splits the full child at index i, hoisting its median entry.
func (n *node[V]) splitChild(i int) {
	child := n.children[i]
	median := child.entries[degree-1]

	right := &node[V]{}
	right.entries = append(right.entries, child.entries[degree:]...)
	if !child.leaf() {
		right.children = append(right.children, child.children[degree:]...)
		child.children = child.children[:degree]
	}
	child.entries = child.entries[:degree-1]

	n.entries = append(n.entries, entry[V]{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// bulkTarget is the per-node occupancy the bottom-up bulk build aims for:
// three quarters full, leaving headroom for later inserts without immediate
// splits while staying comfortably above minEntries. With k =
// ceil((m+1)/(bulkTarget+1)) nodes per level and entries spread evenly, every
// node of a level with m > maxEntries items lands in [minEntries, maxEntries].
const bulkTarget = 24

// BulkLoadSorted inserts a batch of entries in nondecreasing (key, value)
// order — the order the tree keeps, so the result equals repeated Insert
// calls. On an empty tree the entries are assembled bottom-up in O(n) — the
// bulk-load fast path every peer store uses during grid loading; on a
// non-empty tree it merges or inserts (see BulkLoadSortedFunc). It panics if
// the slices differ in length or the batch is out of order.
func (t *Tree[V, P]) BulkLoadSorted(ks []keys.Key, vs []V) {
	if len(ks) != len(vs) {
		panic(fmt.Sprintf("btree: BulkLoadSorted got %d keys but %d values", len(ks), len(vs)))
	}
	t.BulkLoadSortedFunc(len(ks), func(i int) (keys.Key, V) { return ks[i], vs[i] })
}

// BulkLoadSortedFunc is BulkLoadSorted reading entry i through at(i), so
// callers holding entries in their own layout (e.g. an index into a shared
// batch) load without materializing key/value slices first. at is called
// once per index, in ascending order. It panics if the entries are not in
// nondecreasing (key, value) order; the order check rides the single pass
// each path already makes (replicas re-applying a shared shard pay no extra
// scan), so a violation on the per-entry insert path may leave a partially
// loaded tree — discard it (the empty-tree and merge-rebuild paths leave the
// tree unchanged on panic).
//
// A non-empty tree takes the merge-rebuild path (MergeSorted) when the batch
// is large enough relative to the tree for a full rebuild to pay off, and
// per-entry inserts otherwise; stored contents and iteration order are
// identical either way.
func (t *Tree[V, P]) BulkLoadSortedFunc(n int, at func(int) (keys.Key, V)) {
	if n == 0 {
		return
	}
	if t.size > 0 && n*mergeRebuildFactor < t.size {
		var prev entry[V]
		for i := 0; i < n; i++ {
			k, v := at(i)
			if i > 0 && t.compare(&prev, k, t.place(v)) > 0 {
				panic(fmt.Sprintf("btree: bulk load entries out of (key, value) order at index %d", i))
			}
			prev.key, prev.val = k, v
			t.Insert(k, v)
		}
		return
	}
	t.MergeSorted(n, at)
}

// buildSorted assembles a valid B-tree bottom-up from the m entries at
// yields, which must be in (key, value) order: the leaf level chunks the input
// into nodes of near-bulkTarget occupancy, hoisting the entry between
// adjacent chunks as the parent separator; upper levels repeat the chunking
// over the hoisted separators until one root holds everything. Each entry is
// checked against the one written before it, in place, and an out-of-order
// entry panics before the result is published.
func (t *Tree[V, P]) buildSorted(m int, at func(int) (keys.Key, V)) *node[V] {
	var prev *entry[V]
	put := func(e *entry[V], i int) {
		e.key, e.val = at(i)
		if prev != nil && t.compare(prev, e.key, &e.val) > 0 {
			panic(fmt.Sprintf("btree: bulk load entries out of (key, value) order at index %d", i))
		}
		prev = e
	}
	if m <= maxEntries {
		root := &node[V]{entries: make([]entry[V], m)}
		for i := range root.entries {
			put(&root.entries[i], i)
		}
		return root
	}
	// Leaf level, reading entries straight from at — no intermediate slice.
	k := (m + 1 + bulkTarget) / (bulkTarget + 1)
	inNodes := m - (k - 1)
	base, rem := inNodes/k, inNodes%k
	nodes := make([]*node[V], 0, k)
	seps := make([]entry[V], k-1)
	pos := 0
	for j := 0; j < k; j++ {
		take := base
		if j < rem {
			take++
		}
		n := &node[V]{entries: make([]entry[V], take)}
		for i := range n.entries {
			put(&n.entries[i], pos+i)
		}
		pos += take
		nodes = append(nodes, n)
		if j < k-1 {
			put(&seps[j], pos)
			pos++
		}
	}
	items, children := seps, nodes
	for len(items) > maxEntries {
		items, children = buildLevel(items, children)
	}
	root := &node[V]{entries: append(make([]entry[V], 0, len(items)), items...)}
	root.children = children
	return root
}

// buildLevel packs m items (and, on internal levels, their m+1 children) into
// k nodes, returning the k-1 separator entries and the nodes as the next
// level's items and children. Entry slices are copied with exact capacity so
// sibling nodes never share append space.
func buildLevel[V any](items []entry[V], children []*node[V]) ([]entry[V], []*node[V]) {
	m := len(items)
	k := (m + 1 + bulkTarget) / (bulkTarget + 1) // ceil((m+1)/(bulkTarget+1))
	inNodes := m - (k - 1)
	base, rem := inNodes/k, inNodes%k
	nodes := make([]*node[V], 0, k)
	seps := make([]entry[V], 0, k-1)
	pos, cpos := 0, 0
	for j := 0; j < k; j++ {
		take := base
		if j < rem {
			take++
		}
		n := &node[V]{entries: append(make([]entry[V], 0, take), items[pos:pos+take]...)}
		if children != nil {
			n.children = append(make([]*node[V], 0, take+1), children[cpos:cpos+take+1]...)
			cpos += take + 1
		}
		pos += take
		nodes = append(nodes, n)
		if j < k-1 {
			seps = append(seps, items[pos])
			pos++
		}
	}
	return seps, nodes
}

// Get returns all values stored under k, in value order.
func (t *Tree[V, P]) Get(k keys.Key) []V {
	var out []V
	t.AscendGreaterOrEqual(k, func(key keys.Key, v V) bool {
		if !key.Equal(k) {
			return false
		}
		out = append(out, v)
		return true
	})
	return out
}

// Ascend visits every entry in (key, value) order until fn returns false.
func (t *Tree[V, P]) Ascend(fn func(k keys.Key, v V) bool) {
	t.root.ascendGE(keys.Empty, fn)
}

// AscendGreaterOrEqual visits entries with key >= lo in (key, value) order
// until fn returns false.
func (t *Tree[V, P]) AscendGreaterOrEqual(lo keys.Key, fn func(k keys.Key, v V) bool) {
	t.root.ascendGE(lo, fn)
}

func (n *node[V]) ascendGE(lo keys.Key, fn func(k keys.Key, v V) bool) bool {
	i := lowerBound(n, lo)
	if n.leaf() {
		for ; i < len(n.entries); i++ {
			if !fn(n.entries[i].key, n.entries[i].val) {
				return false
			}
		}
		return true
	}
	// Entries equal to lo may also live in the subtree left of the first
	// >=lo separator (duplicates straddle separators), so descend there too.
	if !n.children[i].ascendGE(lo, fn) {
		return false
	}
	for ; i < len(n.entries); i++ {
		if !fn(n.entries[i].key, n.entries[i].val) {
			return false
		}
		if !n.children[i+1].ascendGE(lo, fn) {
			return false
		}
	}
	return true
}

// AscendRange visits, in key order, every entry inside the closed interval iv
// using the interval's prefix-extension convention (keys extending iv.Hi are
// included). It stops early if fn returns false.
func (t *Tree[V, P]) AscendRange(iv keys.Interval, fn func(k keys.Key, v V) bool) {
	t.AscendGreaterOrEqual(iv.Lo, func(k keys.Key, v V) bool {
		if k.Compare(iv.Hi) > 0 && !k.HasPrefix(iv.Hi) {
			return false
		}
		if !iv.Contains(k) {
			return true // between Lo and its extensions; keep scanning
		}
		return fn(k, v)
	})
}

// AscendPrefix visits, in key order, every entry whose key has prefix p.
// All such keys form one contiguous run under the bit-lexicographic order.
func (t *Tree[V, P]) AscendPrefix(p keys.Key, fn func(k keys.Key, v V) bool) {
	t.AscendGreaterOrEqual(p, func(k keys.Key, v V) bool {
		if !k.HasPrefix(p) {
			return false
		}
		return fn(k, v)
	})
}

// Delete removes one entry equal to (k, v) and reports whether there was
// one. It descends straight to the entry, O(log n) comparisons however many
// entries share k.
func (t *Tree[V, P]) Delete(k keys.Key, v V) bool {
	ok := t.delete(k, t.place(v))
	*t.probe = *new(V)
	// A merge on the way down may empty the root even when nothing matched.
	if len(t.root.entries) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if ok {
		t.size--
	}
	return ok
}

// delete walks from the root toward (k, *v), topping every child up to more
// than minEntries before entering it, so the removal never underflows a node.
func (t *Tree[V, P]) delete(k keys.Key, v *V) bool {
	n := t.root
	for {
		i, found := t.search(n, k, v)
		switch {
		case found && n.leaf():
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			return true
		case found:
			n.deleteEntryAt(i)
			return true
		case n.leaf():
			return false
		}
		// The pair sorts between separators i-1 and i, so it can only be in
		// child i; a rotation keeps it there and a merge keeps it in the
		// merged child, whose index ensureChildCapacity returns.
		n = n.children[n.ensureChildCapacity(i)]
	}
}

// deleteEntryAt removes the separator entry at index i of internal node n,
// replacing it with its in-order predecessor or successor, or merging.
func (n *node[V]) deleteEntryAt(i int) {
	left, right := n.children[i], n.children[i+1]
	switch {
	case len(left.entries) > minEntries:
		n.entries[i] = left.popMax()
	case len(right.entries) > minEntries:
		n.entries[i] = right.popMin()
	default:
		// Merge left + separator + right; the separator lands at index
		// minEntries of the merged child, remove it there.
		n.mergeChildren(i)
		m := n.children[i]
		if m.leaf() {
			m.entries = append(m.entries[:minEntries], m.entries[minEntries+1:]...)
		} else {
			m.deleteEntryAt(minEntries)
		}
	}
}

// popMax removes and returns the maximum entry of the subtree rooted at n,
// keeping every node on the path above minimum occupancy.
func (n *node[V]) popMax() entry[V] {
	if n.leaf() {
		e := n.entries[len(n.entries)-1]
		n.entries = n.entries[:len(n.entries)-1]
		return e
	}
	i := n.ensureChildCapacity(len(n.children) - 1)
	_ = i // the rightmost child stays rightmost after any rebalance
	return n.children[len(n.children)-1].popMax()
}

// popMin removes and returns the minimum entry of the subtree rooted at n.
func (n *node[V]) popMin() entry[V] {
	if n.leaf() {
		e := n.entries[0]
		n.entries = append(n.entries[:0], n.entries[1:]...)
		return e
	}
	n.ensureChildCapacity(0)
	return n.children[0].popMin()
}

// ensureChildCapacity guarantees the child at index i has more than
// minEntries entries by rotating from a sibling or merging with one. It
// returns the (possibly shifted) index at which that child now lives: merging
// with the left sibling moves it to i-1.
func (n *node[V]) ensureChildCapacity(i int) int {
	child := n.children[i]
	if len(child.entries) > minEntries {
		return i
	}
	if i > 0 && len(n.children[i-1].entries) > minEntries {
		// Rotate right: separator moves down, left sibling's max moves up.
		left := n.children[i-1]
		child.entries = append(child.entries, entry[V]{})
		copy(child.entries[1:], child.entries)
		child.entries[0] = n.entries[i-1]
		n.entries[i-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].entries) > minEntries {
		// Rotate left: separator moves down, right sibling's min moves up.
		right := n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.entries[0]
		right.entries = append(right.entries[:0], right.entries[1:]...)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return i
	}
	if i > 0 {
		n.mergeChildren(i - 1)
		return i - 1
	}
	n.mergeChildren(i)
	return i
}

// mergeChildren merges child i, separator i, and child i+1 into one node.
func (n *node[V]) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.entries = append(left.entries, n.entries[i])
	left.entries = append(left.entries, right.entries...)
	left.children = append(left.children, right.children...)
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// checkInvariants verifies B-tree structural invariants; tests use it via
// export_test.go. It returns a descriptive error on the first violation.
func (t *Tree[V, P]) checkInvariants() error {
	if t.root == nil {
		return fmt.Errorf("btree: nil root")
	}
	if _, err := check(t.root, true); err != nil {
		return err
	}
	// Entries must be globally sorted by (key, value).
	var prev *entry[V]
	n, ordered := 0, true
	t.root.walk(func(e *entry[V]) {
		if prev != nil && t.compare(prev, e.key, &e.val) > 0 {
			ordered = false
		}
		prev = e
		n++
	})
	if !ordered {
		return fmt.Errorf("btree: entries out of (key, value) order")
	}
	if n != t.size {
		return fmt.Errorf("btree: size %d but traversal saw %d", t.size, n)
	}
	return nil
}

// walk visits every entry of the subtree rooted at n in order, in place.
func (n *node[V]) walk(fn func(*entry[V])) {
	for i := range n.entries {
		if !n.leaf() {
			n.children[i].walk(fn)
		}
		fn(&n.entries[i])
	}
	if !n.leaf() {
		n.children[len(n.entries)].walk(fn)
	}
}

// check validates occupancy and uniform depth; it returns the subtree depth.
func check[V any](n *node[V], isRoot bool) (int, error) {
	if !isRoot && len(n.entries) < minEntries {
		return 0, fmt.Errorf("btree: node underflow: %d entries", len(n.entries))
	}
	if len(n.entries) > maxEntries {
		return 0, fmt.Errorf("btree: node overflow: %d entries", len(n.entries))
	}
	if n.leaf() {
		return 1, nil
	}
	if len(n.children) != len(n.entries)+1 {
		return 0, fmt.Errorf("btree: %d entries but %d children", len(n.entries), len(n.children))
	}
	depth := -1
	for _, c := range n.children {
		d, err := check(c, false)
		if err != nil {
			return 0, err
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return 0, fmt.Errorf("btree: uneven depth %d vs %d", d, depth)
		}
	}
	return depth + 1, nil
}
