package ops

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// JoinPair is one result of a similarity join: a left object paired with a
// right-side match within the join distance (o#r in Algorithm 3).
type JoinPair struct {
	// Left is the left-side object and LeftValue the joined value taken
	// from attribute ln.
	Left      triples.Tuple
	LeftValue string
	// Right describes the matching right-side object.
	Right Match
}

// JoinOptions tunes SimJoin.
type JoinOptions struct {
	// Similar configures the inner similarity selections.
	Similar SimilarOptions
	// LeftLimit bounds the number of left-side values processed (0 = all).
	// The paper's evaluation workload under-specifies the join cardinality;
	// the experiment harness sets this explicitly and records it.
	LeftLimit int
	// MemoizeValues shares one similarity selection among identical left
	// values. Off by default: Algorithm 3 "process[es] separate similarity
	// selections for each object from the left side", anticipating this as a
	// future optimization — the AblationJoinMemo benchmark quantifies it.
	MemoizeValues bool
}

// SimJoin implements Algorithm 3: it retrieves the left set of triples (all
// values of attribute ln), and for each left object runs a similarity
// selection on rn with distance d, pairing the left object with every match.
// Leaving rn empty joins against attribute *names* (schema level); leaving ln
// empty uses every triple as left side, "a very expensive operation".
func (s *Store) SimJoin(t *metrics.Tally, from simnet.NodeID, ln, rn string, d int, opts JoinOptions) ([]JoinPair, error) {
	if d < 0 {
		return nil, fmt.Errorf("ops: negative join distance %d", d)
	}
	// Line 1: L = Retrieve(key(ln), p) — all triples of the left attribute.
	prefix := triples.AttrStringPrefix(ln)
	if ln == "" {
		prefix = triples.AllAttrsPrefix()
	}
	filter := func(p triples.Posting) bool {
		return p.Index == triples.IndexAttrValue && p.Triple.Val.Kind == triples.KindString
	}
	left, err := s.grid.PrefixQuery(t, from, prefix, pgrid.RangeOptions{Filter: filter, FilterBytes: len(ln) + 2})
	if err != nil {
		return nil, err
	}
	// Deterministic order, then optional cap.
	sort.Slice(left, func(i, j int) bool {
		a, b := left[i].Triple, left[j].Triple
		if a.Val.Str != b.Val.Str {
			return a.Val.Str < b.Val.Str
		}
		return a.OID < b.OID
	})
	if opts.LeftLimit > 0 && len(left) > opts.LeftLimit {
		left = left[:opts.LeftLimit]
	}

	// Lines 3-6: one similarity selection per left object (or per distinct
	// left value when memoizing). The selections are independent, so they
	// fan out from one fork point — asynchronously issued siblings on the
	// actor engine's shared timeline — and results are merged back in
	// deterministic left order.
	sels := left
	if opts.MemoizeValues {
		sels = sels[:0:0]
		seen := make(map[string]bool, len(left))
		for _, l := range left {
			if v := l.Triple.Val.Str; !seen[v] {
				seen[v] = true
				sels = append(sels, l)
			}
		}
	}
	matches := make([][]Match, len(sels))
	errs := make([]error, len(sels))
	start := simnet.VTime(t.PathEnd())
	s.grid.Fanout(start, len(sels), func(i int, st simnet.VTime) simnet.VTime {
		ms, end, err := s.similarAt(t, from, sels[i].Triple.Val.Str, rn, d, opts.Similar, st)
		matches[i], errs[i] = ms, err
		return end
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var matchesByValue map[string][]Match
	if opts.MemoizeValues {
		matchesByValue = make(map[string][]Match, len(sels))
		for i, l := range sels {
			matchesByValue[l.Triple.Val.Str] = matches[i]
		}
	}
	var out []JoinPair
	for i, l := range left {
		v := l.Triple.Val.Str
		var ms []Match
		if opts.MemoizeValues {
			ms = matchesByValue[v]
		} else {
			ms = matches[i]
		}
		leftObj := triples.Tuple{OID: l.Triple.OID,
			Fields: []triples.Field{{Name: l.Triple.Attr, Val: l.Triple.Val}}}
		for _, m := range ms {
			out = append(out, JoinPair{Left: leftObj, LeftValue: v, Right: m})
		}
	}
	return out, nil
}
