package keyscheme

import (
	"testing"

	"repro/internal/triples"
)

// TestKeyOfAttributesPostings pins the posting-cache attribution contract:
// for every value entry whose key is in a needle's probe set, KeyOf must
// recover exactly the storing key, so a flat multicast result can be
// partitioned back into per-probe-key cache entries.
func TestKeyOfAttributesPostings(t *testing.T) {
	corpus := []string{"grid", "gird", "grind", "guide", "bride"}
	needle := "grid"
	for _, attr := range []string{"word", ""} { // instance and schema level
		t.Run("qgram/attr="+attr, func(t *testing.T) {
			s := New(0)
			probes := s.Probes(attr, needle, 2, false)
			if probes.KeyOf == nil {
				t.Fatal("ProbeSet.KeyOf is nil")
			}
			probed := make(map[string]bool, len(probes.Keys))
			for _, k := range probes.Keys {
				probed[k.String()] = true
			}
			sc := NewScratch()
			attributed := 0
			for _, v := range corpus {
				var es []Entry
				if attr == "" {
					es = s.AttrEntries(v, sc)
				} else {
					es = s.ValueEntries(nil, attr, v, sc)
				}
				for _, e := range es {
					if !probed[e.Key.String()] {
						continue
					}
					// This entry would be fetched by the probe; its
					// posting must attribute back to the storing key.
					p := triples.Posting{
						Index:    e.Kind,
						GramText: e.GramText,
						GramPos:  e.GramPos,
						SrcLen:   e.SrcLen,
					}
					got, ok := probes.KeyOf(p)
					if !ok {
						t.Fatalf("KeyOf(%+v) not attributable, stored under probed key %s", p, e.Key)
					}
					if !got.Equal(e.Key) {
						t.Fatalf("KeyOf(%+v) = %s, stored under %s", p, got, e.Key)
					}
					attributed++
				}
			}
			if attributed == 0 {
				t.Fatal("no stored entry hit any probe key; test corpus too disjoint")
			}
		})
	}
}

// TestKeyOfRejectsForeignPostings: a posting that no probe key fetched must
// not be attributed — the caller's skip-the-batch safety valve depends on it.
func TestKeyOfRejectsForeignPostings(t *testing.T) {
	probes := New(0).Probes("word", "grid", 1, false)
	if _, ok := probes.KeyOf(triples.Posting{GramText: "zzz", GramPos: 0, SrcLen: 3}); ok {
		t.Error("qgram KeyOf attributed a gram the needle never probed")
	}
}
