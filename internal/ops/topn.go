package ops

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// ErrNoNumericValues reports a numeric top-N over an attribute without
// numeric values; callers may fall back to a scan (e.g. string attributes
// ordered lexicographically).
var ErrNoNumericValues = errors.New("ops: attribute has no numeric values")

// Rank is a top-N ranking function (Section 5).
type Rank int

const (
	// RankMin returns the N smallest values.
	RankMin Rank = iota
	// RankMax returns the N largest values.
	RankMax
	// RankNN returns the N nearest neighbours of a reference value.
	RankNN
)

// String names the ranking function as in VQL.
func (r Rank) String() string {
	switch r {
	case RankMin:
		return "MIN"
	case RankMax:
		return "MAX"
	case RankNN:
		return "NN"
	default:
		return fmt.Sprintf("rank(%d)", int(r))
	}
}

// NumMatch is one numeric top-N result.
type NumMatch struct {
	OID    string
	Attr   string
	Value  float64
	Object triples.Tuple
}

// TopNOptions tunes the top-N operators.
type TopNOptions struct {
	// MaxIterations caps the range-adaptation loop of Algorithm 4
	// (default 32).
	MaxIterations int
	// SkipObjects returns oids and values only, skipping the final
	// reconstruction of complete tuples.
	SkipObjects bool
	// Similar configures the inner similarity operator of string top-N.
	Similar SimilarOptions
}

func (o *TopNOptions) normalize() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 32
	}
}

// numHit is one deduplicated numeric result row during the adaptation loop.
type numHit struct {
	val float64
	oid string
}

// TopN implements Algorithm 4 for numeric attributes: starting from a window
// sized by the locally observed data density (lines 1-7), it issues range
// queries and adapts the window to the observed result density (lines 9-13)
// until at least N objects are collected, then sorts and prunes (line 14).
// For RankNN, v is the reference value; for RankMin/RankMax it is ignored.
//
// Deviation note: Algorithm 5's window arithmetic as printed skips part of
// the key space between consecutive MAX windows (to = v - range - 1 relative
// to the previous window's *upper* bound). We slide windows adjacently from
// the previous *lower* bound instead and track scanned coverage, which keeps
// the algorithm's shape (density-adapted sliding windows) while making
// results exact; duplicates across windows are folded.
func (s *Store) TopN(t *metrics.Tally, from simnet.NodeID, attr string, n int, rank Rank, v float64, opts TopNOptions) ([]NumMatch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ops: top-N needs n > 0, got %d", n)
	}
	opts.normalize()

	// Lines 1-3: estimate density from the initiator's local share of the
	// attribute; when the initiator holds none, the paper's aside "(if this
	// is not stored locally we can initiate a proper query)" applies: probe
	// one partition with a routed lookup.
	count, lo, hi, err := s.localDensity(t, from, attr)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoNumericValues, attr)
	}
	width := hi - lo
	rangeSize := float64(n)
	if width > 0 {
		rangeSize = float64(n) * width / float64(count)
	}

	// Lines 4-7: initial window. The local extrema only estimate the global
	// ones, so MAX opens its first window upward to the domain maximum (and
	// MIN mirrors downward); the extra span is almost always empty and the
	// shower prunes it to the partitions that actually exist.
	var fr, to float64
	switch rank {
	case RankMax:
		fr, to = hi-rangeSize, math.MaxFloat64
	case RankMin:
		fr, to = -math.MaxFloat64, lo+rangeSize
	case RankNN:
		fr, to = v-rangeSize/2, v+rangeSize/2
	default:
		return nil, fmt.Errorf("ops: unknown rank %v", rank)
	}
	fr, to = clampFloat(fr), clampFloat(to)

	seen := make(map[string]numHit)
	scannedLo, scannedHi := math.Inf(1), math.Inf(-1)
	emptyStreak := 0

	for iter := 0; iter < opts.MaxIterations; iter++ {
		added := 0
		// The window may fall apart into disjoint uncovered segments (below
		// and above the scanned band); their range probes are independent,
		// so they fan out as asynchronously issued siblings on the actor
		// timeline, and their results merge deterministically in segment
		// order.
		segs := unscanned(fr, to, scannedLo, scannedHi)
		segResults := make([][]triples.Posting, len(segs))
		segErrs := make([]error, len(segs))
		start := simnet.VTime(t.PathEnd())
		s.grid.Fanout(start, len(segs), func(i int, st simnet.VTime) simnet.VTime {
			res, e, err := s.rangeNumericAt(t, from, attr, segs[i][0], segs[i][1], st)
			segResults[i], segErrs[i] = res, err
			return e
		})
		for i := range segs {
			if segErrs[i] != nil {
				return nil, segErrs[i]
			}
			for _, p := range segResults[i] {
				key := p.Triple.OID + "\x00" + p.Triple.Val.Render()
				if _, dup := seen[key]; !dup {
					seen[key] = numHit{val: p.Triple.Val.Num, oid: p.Triple.OID}
					added++
				}
			}
		}
		if fr < scannedLo {
			scannedLo = fr
		}
		if to > scannedHi {
			scannedHi = to
		}
		if s.topNDone(rank, seen, v, n, scannedLo, scannedHi) {
			break
		}
		if scannedLo <= -math.MaxFloat64 && scannedHi >= math.MaxFloat64 {
			break // whole domain covered; fewer than N exist
		}
		// Lines 11-12: adapt the window size to the observed density.
		if added > 0 {
			emptyStreak = 0
			density := float64(added) / math.Max(to-fr, 1e-12)
			missing := n - len(seen)
			if missing < 1 {
				missing = 1
			}
			rangeSize = float64(missing) / math.Max(density, 1e-12)
		} else {
			emptyStreak++
			rangeSize *= 8
		}
		if emptyStreak >= 2 {
			// Two empty windows in a row: finish with one exact sweep of
			// the uncovered domain rather than creeping toward it.
			fr, to = -math.MaxFloat64, math.MaxFloat64
			continue
		}
		fr, to = nextWindow(rank, rangeSize, fr, to)
	}

	matches := make([]NumMatch, 0, len(seen))
	for _, h := range seen {
		matches = append(matches, NumMatch{OID: h.oid, Attr: attr, Value: h.val})
	}
	sortNumMatches(matches, rank, v)
	if len(matches) > n {
		matches = matches[:n]
	}
	if !opts.SkipObjects {
		if err := s.attachObjects(t, from, matches); err != nil {
			return matches, err
		}
	}
	return matches, nil
}

// topNDone reports whether the collected results provably contain the true
// top N. MIN/MAX windows extend from the domain edge, so N results suffice;
// NN additionally needs the scanned window to cover the radius of the N-th
// nearest result on both sides.
func (s *Store) topNDone(rank Rank, seen map[string]numHit, v float64, n int, scannedLo, scannedHi float64) bool {
	if len(seen) < n {
		return false
	}
	if rank != RankNN {
		return true
	}
	dists := make([]float64, 0, len(seen))
	for _, h := range seen {
		dists = append(dists, math.Abs(h.val-v))
	}
	sort.Float64s(dists)
	r := dists[n-1]
	return v-r >= scannedLo && v+r <= scannedHi
}

// nextWindow implements the window progression of Algorithm 5 (Keys): MAX
// slides the window downward adjacent to the previous one, MIN upward, NN
// grows symmetrically around the previous window.
func nextWindow(rank Rank, rangeSize, u, v float64) (fr, to float64) {
	switch rank {
	case RankMax:
		to = u
		fr = to - rangeSize
	case RankMin:
		fr = v
		to = fr + rangeSize
	case RankNN:
		fr = u - rangeSize/2
		to = v + rangeSize/2
	}
	return clampFloat(fr), clampFloat(to)
}

func clampFloat(x float64) float64 {
	if x < -math.MaxFloat64 {
		return -math.MaxFloat64
	}
	if x > math.MaxFloat64 {
		return math.MaxFloat64
	}
	return x
}

// unscanned returns the sub-intervals of [fr, to] not yet covered by
// [scannedLo, scannedHi].
func unscanned(fr, to, scannedLo, scannedHi float64) [][2]float64 {
	if scannedLo > scannedHi { // nothing scanned yet
		return [][2]float64{{fr, to}}
	}
	var out [][2]float64
	if fr < scannedLo {
		out = append(out, [2]float64{fr, math.Min(to, scannedLo)})
	}
	if to > scannedHi {
		out = append(out, [2]float64{math.Max(fr, scannedHi), to})
	}
	return out
}

// rangeNumericAt issues one P-Grid range query over the numeric values of
// attr in [lo, hi], starting at the given virtual time. RangeQuery(attr, fr,
// to) in Algorithm 4's notation.
func (s *Store) rangeNumericAt(t *metrics.Tally, from simnet.NodeID, attr string, lo, hi float64,
	start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {

	if lo > hi {
		lo, hi = hi, lo
	}
	iv := keys.Interval{
		Lo: triples.AttrValueKey(attr, triples.Number(lo)),
		Hi: triples.AttrValueKey(attr, triples.Number(hi)),
	}
	filter := func(p triples.Posting) bool {
		return p.Index == triples.IndexAttrValue &&
			p.Triple.Val.Kind == triples.KindNumber &&
			p.Triple.Val.Num >= lo && p.Triple.Val.Num <= hi
	}
	return s.grid.RangeQueryAt(t, from, iv, pgrid.RangeOptions{Filter: filter, FilterBytes: 16}, start)
}

// localDensity estimates the data density of attr from the initiator's local
// store (Algorithm 4, lines 1-2), falling back to one routed partition probe
// when the initiator holds no values of attr.
func (s *Store) localDensity(t *metrics.Tally, from simnet.NodeID, attr string) (count int, lo, hi float64, err error) {
	p, err := s.grid.Peer(from)
	if err != nil {
		return 0, 0, 0, err
	}
	scan := func(ps []triples.Posting) {
		for _, posting := range ps {
			if posting.Index != triples.IndexAttrValue || posting.Triple.Val.Kind != triples.KindNumber {
				continue
			}
			x := posting.Triple.Val.Num
			if count == 0 || x < lo {
				lo = x
			}
			if count == 0 || x > hi {
				hi = x
			}
			count++
		}
	}
	scan(p.LocalPrefix(triples.AttrPrefix(attr)))
	if count > 0 {
		return count, lo, hi, nil
	}
	res, err := s.grid.Lookup(t, from, triples.AttrPrefix(attr))
	if err != nil {
		return 0, 0, 0, err
	}
	scan(res)
	return count, lo, hi, nil
}

func sortNumMatches(ms []NumMatch, rank Rank, v float64) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		switch rank {
		case RankMax:
			if a.Value != b.Value {
				return a.Value > b.Value
			}
		case RankMin:
			if a.Value != b.Value {
				return a.Value < b.Value
			}
		case RankNN:
			da, db := math.Abs(a.Value-v), math.Abs(b.Value-v)
			if da != db {
				return da < db
			}
		}
		return a.OID < b.OID
	})
}

// attachObjects reconstructs the complete tuples of the final matches.
func (s *Store) attachObjects(t *metrics.Tally, from simnet.NodeID, ms []NumMatch) error {
	if len(ms) == 0 {
		return nil
	}
	oids := make(map[string]bool, len(ms))
	for _, m := range ms {
		oids[m.OID] = true
	}
	objects, err := s.reconstruct(t, from, setToSlice(oids))
	if err != nil {
		return err
	}
	byOID := make(map[string]triples.Tuple, len(objects))
	for _, o := range objects {
		byOID[o.OID] = o
	}
	for i := range ms {
		ms[i].Object = byOID[ms[i].OID]
	}
	return nil
}

// TopNString answers rank-aware string queries: the N objects whose value of
// attr is nearest (by edit distance) to the needle, searched with increasing
// "concrete distances instead of interval start and end points" (Section 5)
// up to maxDist — the paper's evaluation uses maxDist 5.
func (s *Store) TopNString(t *metrics.Tally, from simnet.NodeID, attr, needle string, n, maxDist int, opts TopNOptions) ([]Match, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ops: top-N needs n > 0, got %d", n)
	}
	opts.normalize()
	var matches []Match
	for d := 0; d <= maxDist; d++ {
		ms, err := s.Similar(t, from, needle, attr, d, opts.Similar)
		if err != nil {
			return nil, err
		}
		matches = ms
		if len(matches) >= n {
			break
		}
	}
	sortMatches(matches)
	if len(matches) > n {
		matches = matches[:n]
	}
	return matches, nil
}
