package ops

import (
	"fmt"
	"math"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// SelectEq returns all triples with attribute attr and value exactly v — the
// hash-on-Ai#vi access path of Section 3(b).
func (s *Store) SelectEq(t *metrics.Tally, from simnet.NodeID, attr string, v triples.Value) ([]triples.Triple, error) {
	ps, err := s.grid.Lookup(t, from, triples.AttrValueKey(attr, v))
	if err != nil {
		return nil, err
	}
	return postingTriples(ps, triples.IndexAttrValue), nil
}

// Bound is one end of a numeric range; Open bounds exclude the endpoint.
type Bound struct {
	Value float64
	Open  bool
}

// SelectNumRange returns the triples of attr whose numeric value lies between
// lo and hi (nil bounds are unbounded) — selections of the form Ai >= v that
// Section 3 motivates the Ai#vi hashing with.
func (s *Store) SelectNumRange(t *metrics.Tally, from simnet.NodeID, attr string, lo, hi *Bound) ([]triples.Triple, error) {
	loV, hiV := -math.MaxFloat64, math.MaxFloat64
	if lo != nil {
		loV = lo.Value
	}
	if hi != nil {
		hiV = hi.Value
	}
	if loV > hiV {
		return nil, fmt.Errorf("ops: empty numeric range [%g, %g]", loV, hiV)
	}
	iv := keys.Interval{
		Lo: triples.AttrValueKey(attr, triples.Number(loV)),
		Hi: triples.AttrValueKey(attr, triples.Number(hiV)),
	}
	filter := func(p triples.Posting) bool {
		if p.Index != triples.IndexAttrValue || p.Triple.Val.Kind != triples.KindNumber {
			return false
		}
		x := p.Triple.Val.Num
		if x < loV || x > hiV {
			return false
		}
		if lo != nil && lo.Open && x == loV {
			return false
		}
		if hi != nil && hi.Open && x == hiV {
			return false
		}
		return true
	}
	ps, err := s.grid.RangeQuery(t, from, iv, pgrid.RangeOptions{Filter: filter, FilterBytes: 17})
	if err != nil {
		return nil, err
	}
	return postingTriples(ps, triples.IndexAttrValue), nil
}

// StrBound is one end of a lexicographic string range.
type StrBound struct {
	Value string
	Open  bool
}

// SelectStrRange returns the triples of attr whose string value lies
// lexicographically between lo and hi (nil bounds are unbounded). The
// order-preserving hashing of Section 2 makes this a contiguous key range,
// answered by one shower.
func (s *Store) SelectStrRange(t *metrics.Tally, from simnet.NodeID, attr string, lo, hi *StrBound) ([]triples.Triple, error) {
	if lo != nil && hi != nil && lo.Value > hi.Value {
		return nil, fmt.Errorf("ops: empty string range [%q, %q]", lo.Value, hi.Value)
	}
	iv := keys.Interval{Lo: triples.AttrStringPrefix(attr), Hi: triples.AttrStringPrefix(attr)}
	if lo != nil {
		iv.Lo = triples.AttrValueKey(attr, triples.String(lo.Value))
	}
	if hi != nil {
		iv.Hi = triples.AttrValueKey(attr, triples.String(hi.Value))
	}
	filter := func(p triples.Posting) bool {
		if p.Index != triples.IndexAttrValue || p.Triple.Val.Kind != triples.KindString {
			return false
		}
		v := p.Triple.Val.Str
		if lo != nil && (v < lo.Value || (lo.Open && v == lo.Value)) {
			return false
		}
		if hi != nil && (v > hi.Value || (hi.Open && v == hi.Value)) {
			return false
		}
		return true
	}
	fb := 2
	if lo != nil {
		fb += len(lo.Value)
	}
	if hi != nil {
		fb += len(hi.Value)
	}
	ps, err := s.grid.RangeQuery(t, from, iv, pgrid.RangeOptions{Filter: filter, FilterBytes: fb})
	if err != nil {
		return nil, err
	}
	return postingTriples(ps, triples.IndexAttrValue), nil
}

// SelectValuePrefix returns the triples of attr whose string value starts
// with the given prefix — the substring/prefix search P-Grid's
// order-preserving keys support natively (Section 2 mentions substring
// search; a value prefix is one contiguous key range).
func (s *Store) SelectValuePrefix(t *metrics.Tally, from simnet.NodeID, attr, prefix string) ([]triples.Triple, error) {
	filter := func(p triples.Posting) bool {
		return p.Index == triples.IndexAttrValue &&
			p.Triple.Val.Kind == triples.KindString &&
			len(p.Triple.Val.Str) >= len(prefix) &&
			p.Triple.Val.Str[:len(prefix)] == prefix
	}
	ps, err := s.grid.PrefixQuery(t, from, triples.AttrValuePrefixKey(attr, prefix),
		pgrid.RangeOptions{Filter: filter, FilterBytes: len(prefix) + 2})
	if err != nil {
		return nil, err
	}
	return postingTriples(ps, triples.IndexAttrValue), nil
}

// NumericDistBounds maps a numeric similarity predicate dist(value, center)
// within d to the interval between center-d and center+d (Section 4: "for
// similarity queries on numerical attributes we map the provided similarity
// measure to a corresponding interval"): open endpoints for the strict
// dist < d, closed ones for dist <= d.
func NumericDistBounds(center, d float64, strict bool) (lo, hi Bound) {
	return Bound{Value: center - d, Open: strict}, Bound{Value: center + d, Open: strict}
}

// SimilarNumeric returns the triples of attr whose numeric value v satisfies
// dist(v, center) < d, processed as a range query over the open interval
// NumericDistBounds gives.
func (s *Store) SimilarNumeric(t *metrics.Tally, from simnet.NodeID, attr string, center, d float64) ([]triples.Triple, error) {
	if d < 0 {
		return nil, fmt.Errorf("ops: negative numeric distance %g", d)
	}
	lo, hi := NumericDistBounds(center, d, true)
	return s.SelectNumRange(t, from, attr, &lo, &hi)
}

// ScanAttr returns every triple of an attribute, in value order.
func (s *Store) ScanAttr(t *metrics.Tally, from simnet.NodeID, attr string) ([]triples.Triple, error) {
	filter := func(p triples.Posting) bool { return p.Index == triples.IndexAttrValue }
	ps, err := s.grid.PrefixQuery(t, from, triples.AttrPrefix(attr),
		pgrid.RangeOptions{Filter: filter, FilterBytes: 1})
	if err != nil {
		return nil, err
	}
	return postingTriples(ps, triples.IndexAttrValue), nil
}

// KeywordSearch returns every triple holding value v under any attribute —
// the "any attribute = v" access path of Section 3(c), served by the value
// index.
func (s *Store) KeywordSearch(t *metrics.Tally, from simnet.NodeID, v triples.Value) ([]triples.Triple, error) {
	ps, err := s.grid.Lookup(t, from, triples.ValueKey(v))
	if err != nil {
		return nil, err
	}
	return postingTriples(ps, triples.IndexValue), nil
}

// LookupObject reconstructs the complete tuple stored under an oid — the
// hash-on-oid access path of Section 3(a).
func (s *Store) LookupObject(t *metrics.Tally, from simnet.NodeID, oid string) (triples.Tuple, error) {
	objs, err := s.reconstruct(t, from, []string{oid})
	if err != nil {
		return triples.Tuple{}, err
	}
	if len(objs) == 0 {
		return triples.Tuple{}, fmt.Errorf("ops: no object %q", oid)
	}
	return objs[0], nil
}

// LookupObjects reconstructs many tuples with one batched multicast.
func (s *Store) LookupObjects(t *metrics.Tally, from simnet.NodeID, oids []string) ([]triples.Tuple, error) {
	set := make(map[string]bool, len(oids))
	for _, oid := range oids {
		set[oid] = true
	}
	return s.reconstruct(t, from, setToSlice(set))
}

// Attributes lists the distinct attribute names in the store via the catalog
// index (empty when the catalog extension is disabled).
func (s *Store) Attributes(t *metrics.Tally, from simnet.NodeID) ([]string, error) {
	filter := func(p triples.Posting) bool { return p.Index == triples.IndexCatalog }
	ps, err := s.grid.PrefixQuery(t, from, triples.CatalogPrefix(),
		pgrid.RangeOptions{Filter: filter, FilterBytes: 1})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, p := range ps {
		if !seen[p.Triple.Attr] {
			seen[p.Triple.Attr] = true
			out = append(out, p.Triple.Attr)
		}
	}
	return out, nil
}

func postingTriples(ps []triples.Posting, kind triples.IndexKind) []triples.Triple {
	out := make([]triples.Triple, 0, len(ps))
	for _, p := range ps {
		if p.Index == kind {
			out = append(out, p.Triple)
		}
	}
	return out
}
