package qcache

import (
	"fmt"
	"testing"
)

// unitCost charges every entry a fixed 10 accounted bytes.
func unitCost(string, int) int { return 10 }

func TestGetPutRoundTrip(t *testing.T) {
	c := New[string, int](100, 1, unitCost)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(c.Gen(), "a", 42)
	v, ok := c.Get("a")
	if !ok || v != 42 {
		t.Fatalf("Get(a) = %d, %v; want 42, true", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 || s.Bytes != 10 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put, 1 entry, 10 bytes", s)
	}
}

// TestInvalidateDropsOnlyNamedKeys: a reported write removes the entries it
// names and nothing else; an event that drops nothing is not counted.
func TestInvalidateDropsOnlyNamedKeys(t *testing.T) {
	c := New[string, int](100, 1, unitCost)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(c.Gen(), k, i)
	}
	c.Invalidate([]string{"b", "absent", "d"})
	for k, want := range map[string]bool{"a": true, "b": false, "c": true, "d": false} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("after Invalidate(b, absent, d): Get(%s) hit = %v, want %v", k, ok, want)
		}
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Invalidated != 2 || s.Entries != 2 || s.Bytes != 20 {
		t.Errorf("stats after invalidation = %+v, want 1 event, 2 dropped, 2 entries, 20 bytes", s)
	}
	c.Invalidate([]string{"absent"})
	if s := c.Stats(); s.Invalidations != 1 || s.Invalidated != 2 {
		t.Errorf("an event that dropped nothing was counted: %+v", s)
	}
}

// TestInvalidateFuncDropsStaleValues: the predicate form removes exactly the
// entries whose stored value it reports stale.
func TestInvalidateFuncDropsStaleValues(t *testing.T) {
	c := New[string, int](200, 1, unitCost)
	for i := 0; i < 10; i++ {
		c.Put(c.Gen(), fmt.Sprintf("k%d", i), i)
	}
	c.InvalidateFunc(func(_ string, v int) bool { return v%3 == 0 })
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok == (i%3 == 0) {
			t.Errorf("k%d: hit = %v after dropping multiples of three", i, ok)
		}
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Invalidated != 4 || s.Entries != 6 || s.Bytes != 60 {
		t.Errorf("stats = %+v, want 1 event, 4 dropped, 6 entries, 60 bytes", s)
	}
}

// TestStalePutDropped: a value computed under a generation captured before a
// write was reported is refused — even when that report found nothing to
// drop, since the value itself may be what is stale — while entries the write
// did not touch stay, and a reader that starts afterwards is admitted.
func TestStalePutDropped(t *testing.T) {
	c := New[string, int](100, 1, unitCost)
	c.Put(c.Gen(), "untouched", 7)
	gen := c.Gen()              // a reader starts...
	c.Invalidate([]string{"a"}) // ...a write to a is reported: nothing cached to drop...
	c.Put(gen, "a", 1)          // ...and the reader's pre-write value arrives
	if _, ok := c.Get("a"); ok {
		t.Fatal("stale Put was admitted")
	}
	if s := c.Stats(); s.Puts != 1 {
		t.Errorf("stale put counted: %+v", s)
	}
	if v, ok := c.Get("untouched"); !ok || v != 7 {
		t.Errorf("Get(untouched) = %d, %v; the write did not touch it", v, ok)
	}
	c.Put(c.Gen(), "a", 2)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Errorf("Get(a) = %d, %v; a reader that started after the report must be admitted", v, ok)
	}
}

func TestClear(t *testing.T) {
	c := New[string, int](100, 1, unitCost)
	gen := c.Gen()
	c.Put(gen, "a", 1)
	c.Put(gen, "b", 2)
	c.Clear()
	c.Put(gen, "c", 3)
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Invalidations != 1 || s.Invalidated != 2 {
		t.Errorf("stats after Clear = %+v, want empty, 1 event, 2 dropped, the pre-Clear Put refused", s)
	}
}

func TestByteBoundEvicts(t *testing.T) {
	c := New[string, int](35, 1, unitCost) // room for 3 entries of 10
	for i := 0; i < 5; i++ {
		c.Put(c.Gen(), fmt.Sprintf("k%d", i), i)
	}
	s := c.Stats()
	if s.Entries != 3 || s.Bytes != 30 || s.Evictions != 2 {
		t.Errorf("stats = %+v, want 3 entries, 30 bytes, 2 evictions", s)
	}
}

func TestOversizedEntryNotCached(t *testing.T) {
	c := New[string, int](5, 1, unitCost) // every entry costs 10 > 5
	c.Put(c.Gen(), "a", 1)
	if c.Len() != 0 {
		t.Fatal("oversized entry cached")
	}
}

func TestOverwriteReplacesCost(t *testing.T) {
	cost := func(_ string, v int) int { return v }
	c := New[string, int](100, 1, cost)
	c.Put(c.Gen(), "a", 60)
	c.Put(c.Gen(), "a", 20)
	s := c.Stats()
	if s.Bytes != 20 || s.Entries != 1 || s.Evictions != 0 {
		t.Errorf("stats after overwrite = %+v, want 20 bytes, 1 entry, 0 evictions", s)
	}
}

// TestEvictionDeterministic pins the seeded contract: the identical operation
// sequence — puts past the bound, overwrites, both invalidation forms — with
// the same seed keeps the same survivors, so a later eviction draws the same
// victims whatever the maps' iteration order.
func TestEvictionDeterministic(t *testing.T) {
	survivors := func(seed int64) string {
		c := New[string, int](80, seed, unitCost)
		for i := 0; i < 40; i++ {
			c.Put(c.Gen(), fmt.Sprintf("k%02d", i), i)
			switch i % 10 {
			case 3:
				c.Invalidate([]string{fmt.Sprintf("k%02d", i-1), fmt.Sprintf("k%02d", i-2)})
			case 6:
				c.InvalidateFunc(func(_ string, v int) bool { return v%4 == 1 })
			case 9:
				c.Put(c.Gen(), fmt.Sprintf("k%02d", i-4), -i)
			}
		}
		var out string
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("k%02d", i)
			if _, ok := c.Get(k); ok {
				out += k + ","
			}
		}
		return out + fmt.Sprintf(" %+v", c.Stats())
	}
	a := survivors(7)
	for i := 0; i < 10; i++ {
		if b := survivors(7); a != b {
			t.Fatalf("same seed diverged:\n%s\n%s", a, b)
		}
	}
	if a[0] == ' ' {
		t.Fatal("no survivors at all")
	}
}

func TestStatsSub(t *testing.T) {
	c := New[string, int](100, 1, unitCost)
	c.Put(c.Gen(), "a", 1)
	before := c.Stats()
	c.Get("a")
	c.Get("b")
	c.Invalidate([]string{"a"})
	d := c.Stats().Sub(before)
	if d.Hits != 1 || d.Misses != 1 || d.Puts != 0 || d.Invalidations != 1 || d.Invalidated != 1 {
		t.Errorf("delta = %+v, want 1 hit, 1 miss, 0 puts, 1 invalidation of 1 entry", d)
	}
	if d.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", d.HitRatio())
	}
}
