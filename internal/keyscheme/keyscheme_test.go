package keyscheme

import (
	"strings"
	"testing"

	"repro/internal/strdist"
	"repro/internal/triples"
)

// TestQGramEntriesMatchStrdist pins the q-gram scheme to the strdist
// primitives it wraps: ValueEntries must emit exactly the padded positional
// grams of the value, keyed per gram, and AttrEntries the schema grams of
// the attribute name.
func TestQGramEntriesMatchStrdist(t *testing.T) {
	s := New(0)
	sc := NewScratch()
	const attr, val = "name", "similar"
	es := s.ValueEntries(nil, attr, val, sc)
	grams := strdist.PaddedGrams(val, s.Q())
	if len(es) != len(grams) {
		t.Fatalf("ValueEntries emitted %d entries, want %d grams", len(es), len(grams))
	}
	if len(es) > s.ValueEntryBound(len(val)) {
		t.Fatalf("%d entries exceed ValueEntryBound %d", len(es), s.ValueEntryBound(len(val)))
	}
	for i, e := range es {
		if e.GramText != grams[i].Text || e.GramPos != grams[i].Pos || e.SrcLen != len(val) {
			t.Errorf("entry %d = %+v, want gram %+v srclen %d", i, e, grams[i], len(val))
		}
		if e.Kind != triples.IndexGram {
			t.Errorf("entry %d kind = %v, want gram", i, e.Kind)
		}
		if want := triples.GramKey(attr, grams[i].Text); !e.Key.Equal(want) {
			t.Errorf("entry %d key = %v, want GramKey", i, e.Key)
		}
	}
	as := s.AttrEntries(attr, sc)
	if want := len(strdist.PaddedGrams(attr, s.Q())); len(as) != want {
		t.Fatalf("AttrEntries emitted %d entries, want %d", len(as), want)
	}
	for i, e := range as {
		if e.Kind != triples.IndexSchemaGram {
			t.Errorf("attr entry %d kind = %v, want schemagram", i, e.Kind)
		}
	}
	if got := s.ShortThreshold(2); got != strdist.GuaranteeThreshold(s.Q(), 2) {
		t.Errorf("ShortThreshold(2) = %d, want the guarantee threshold", got)
	}
}

// TestScratchCacheByteBound is the regression test for the byte-bounded
// attribute cache: the bound is on accounted bytes, not entry count, so a
// few pathologically huge attribute names must stop being cached while
// ordinary attributes keep caching and hitting.
func TestScratchCacheByteBound(t *testing.T) {
	s := New(0)
	sc := NewScratchWithCacheLimit(16 << 10)

	// Ordinary attributes cache and hit: the second call returns the same
	// backing slice.
	first := s.AttrEntries("name", sc)
	second := s.AttrEntries("name", sc)
	if len(first) == 0 || &first[0] != &second[0] {
		t.Fatal("small attribute expansion was not cached")
	}
	if sc.CachedAttrs() != 1 || sc.CachedAttrBytes() == 0 {
		t.Fatalf("cache = %d attrs / %d bytes after one attribute", sc.CachedAttrs(), sc.CachedAttrBytes())
	}

	// A stream of huge generated attribute names must not grow the cache
	// past its byte bound — under the old entry-count bound (1<<14 entries)
	// these ~4KiB names would pin hundreds of MiB.
	for i := 0; i < 64; i++ {
		huge := strings.Repeat("x", 4096) + string(rune('a'+i%26)) + strings.Repeat("y", i)
		s.AttrEntries(huge, sc)
		if got := sc.CachedAttrBytes(); got > 16<<10 {
			t.Fatalf("cache grew to %d accounted bytes, bound is %d", got, 16<<10)
		}
	}
	if sc.CachedAttrs() > 4 {
		t.Errorf("%d huge attributes cached within a 16KiB bound", sc.CachedAttrs())
	}

	// The small attribute is still served from cache afterwards.
	third := s.AttrEntries("name", sc)
	if &first[0] != &third[0] {
		t.Error("small attribute evicted; the bound should refuse new inserts, not evict")
	}

	// Uncached expansions are still correct, just rebuilt.
	huge := strings.Repeat("z", 4096)
	if got, want := len(s.AttrEntries(huge, sc)), s.AttrEntryBound(len(huge)); got != want {
		t.Errorf("uncached expansion has %d entries, want %d", got, want)
	}
}

// TestScratchCacheDefaultBound: NewScratch applies the default byte bound.
func TestScratchCacheDefaultBound(t *testing.T) {
	sc := NewScratch()
	if sc.attrCap != DefaultAttrCacheBytes {
		t.Fatalf("default cache bound = %d, want %d", sc.attrCap, DefaultAttrCacheBytes)
	}
}
