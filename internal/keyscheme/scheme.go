package keyscheme

import (
	"sort"

	"repro/internal/keys"
	"repro/internal/strdist"
	"repro/internal/triples"
)

// Scheme is the paper's discipline (Section 4): one posting per padded
// positional q-gram, keyed attr#gram at instance level and by the gram
// alone at schema level. Probing retrieves every (or, sampled, every
// (d+1)th non-overlapping) needle gram and keeps postings passing the
// length and position filters of Algorithm 2 line 8. Complete for needles
// at or above the guarantee threshold. A Scheme is immutable and safe for
// concurrent use; all mutable buffers live in the per-worker Scratch.
type Scheme struct {
	q int
}

// New returns the scheme of gram size q (q <= 0 selects 3).
func New(q int) Scheme {
	if q <= 0 {
		q = 3
	}
	return Scheme{q: q}
}

// Q returns the gram size.
func (s Scheme) Q() int { return s.q }

// ValueEntries appends the similarity entries of a string value of attr
// (instance level, one slim posting per padded positional gram).
func (s Scheme) ValueEntries(dst []Entry, attr, v string, sc *Scratch) []Entry {
	sc.grams = strdist.AppendPaddedGrams(sc.grams[:0], v, s.q)
	for _, g := range sc.grams {
		dst = append(dst, Entry{
			Key:      triples.GramKey(attr, g.Text),
			Kind:     triples.IndexGram,
			GramText: g.Text,
			GramPos:  g.Pos,
			SrcLen:   len(v),
		})
	}
	return dst
}

// AttrEntries returns the schema-level entries of an attribute name.
// Attribute names repeat on virtually every triple, so results are cached
// in the scratch; callers must not modify the returned slice.
func (s Scheme) AttrEntries(attr string, sc *Scratch) []Entry {
	return sc.cachedAttrEntries(attr, func() []Entry {
		gs := strdist.PaddedGrams(attr, s.q)
		es := make([]Entry, len(gs))
		for i, g := range gs {
			es[i] = Entry{
				Key:      triples.SchemaGramKey(g.Text),
				Kind:     triples.IndexSchemaGram,
				GramText: g.Text,
				GramPos:  g.Pos,
				SrcLen:   len(attr),
			}
		}
		return es
	})
}

// ValueEntryBound and AttrEntryBound upper-bound the respective entry
// counts for a source string of the given byte length; extraction uses them
// to size buffers exactly. A string of length l has l+q-1 padded q-grams.
func (s Scheme) ValueEntryBound(srcLen int) int { return srcLen + s.q - 1 }
func (s Scheme) AttrEntryBound(srcLen int) int  { return srcLen + s.q - 1 }

// ShortThreshold is the needle length below which the probes cannot
// guarantee completeness at distance d; the store indexes values below it
// in the short-value side index.
func (s Scheme) ShortThreshold(d int) int { return strdist.GuaranteeThreshold(s.q, d) }

// Probes plans the candidate retrieval for needle at distance d. attr == ""
// selects the schema level. sampled requests the sparser q-sample probe set
// (MethodQSamples).
func (s Scheme) Probes(attr, needle string, d int, sampled bool) ProbeSet {
	var grams []strdist.Gram
	if sampled {
		grams = strdist.Samples(needle, s.q, d)
	} else {
		grams = strdist.PaddedGrams(needle, s.q)
	}
	// Several query grams can share text at different positions; the filter
	// must accept a posting if ANY of them is position-compatible.
	posByText := make(map[string][]int)
	for _, g := range grams {
		posByText[g.Text] = append(posByText[g.Text], g.Pos)
	}
	ks := make([]keys.Key, 0, len(posByText))
	for text := range posByText {
		if attr == "" {
			ks = append(ks, triples.SchemaGramKey(text))
		} else {
			ks = append(ks, triples.GramKey(attr, text))
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Less(ks[j]) })

	kind := triples.IndexGram
	if attr == "" {
		kind = triples.IndexSchemaGram
	}
	needleLen := len(needle)
	accept := func(p triples.Posting) bool {
		if !strdist.LengthFilter(p.SrcLen, needleLen, d) {
			return false
		}
		for _, qp := range posByText[p.GramText] {
			if strdist.PositionFilter(strdist.Gram{Pos: qp}, strdist.Gram{Pos: p.GramPos}, d) {
				return true
			}
		}
		return false
	}
	// Gram postings carry their gram text, so the storage key — and with it
	// the probe key that fetched the posting — is recomputable.
	keyOf := func(p triples.Posting) (keys.Key, bool) {
		if _, probed := posByText[p.GramText]; !probed {
			return keys.Key{}, false
		}
		if attr == "" {
			return triples.SchemaGramKey(p.GramText), true
		}
		return triples.GramKey(attr, p.GramText), true
	}
	return ProbeSet{Keys: ks, Kind: kind, Accept: accept, KeyOf: keyOf}
}
