package btree

// CheckInvariants exposes the structural validator to tests.
func (t *Tree[V, P]) CheckInvariants() error { return t.checkInvariants() }

// height reports the tree height (a single leaf root has height 1).
func (t *Tree[V, P]) height() int {
	h := 0
	for n := t.root; ; n = n.children[0] {
		h++
		if n.leaf() {
			return h
		}
	}
}

// SlotCapacity reports the total entry-slot capacity allocated across the
// tree's nodes — the retention a fragmentation guard compares against Len.
func (t *Tree[V, P]) SlotCapacity() int {
	if t.root == nil {
		return 0
	}
	return slotCapacity(t.root)
}

func slotCapacity[V any](n *node[V]) int {
	total := cap(n.entries)
	for _, c := range n.children {
		total += slotCapacity(c)
	}
	return total
}
