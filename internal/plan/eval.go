package plan

import (
	"math"

	"repro/internal/ops"
	"repro/internal/strdist"
	"repro/internal/triples"
	"repro/internal/vql"
)

// resolveTerm returns the value of a term under a row binding.
func resolveTerm(t vql.Term, r Row) (triples.Value, bool) {
	if t.IsVar() {
		v, ok := r[t.Text]
		return v, ok
	}
	v, err := t.Value()
	return v, err == nil
}

// evalFilter evaluates a FILTER predicate on a fully bound row.
func evalFilter(f vql.Filter, r Row) bool {
	left, okL := resolveTerm(f.Left, r)
	right, okR := resolveTerm(f.Right, r)
	if !okL || !okR {
		return false
	}
	if f.Kind == vql.FilterDist {
		d, ok := distance(left, right)
		if !ok {
			return false
		}
		if f.Op == vql.OpLT {
			return d < f.Bound
		}
		return d <= f.Bound
	}
	return compareValues(left, right, f.Op)
}

// distance implements VQL's dist(): edit distance for strings, absolute
// (1-D Euclidean) distance for numbers (Section 3).
func distance(a, b triples.Value) (float64, bool) {
	switch {
	case a.Kind == triples.KindString && b.Kind == triples.KindString:
		return float64(strdist.Levenshtein(a.Str, b.Str)), true
	case a.Kind == triples.KindNumber && b.Kind == triples.KindNumber:
		return math.Abs(a.Num - b.Num), true
	default:
		return 0, false
	}
}

// compareValues applies a comparison operator. Values of different kinds are
// only comparable with = (false) and != (true).
func compareValues(a, b triples.Value, op vql.CompareOp) bool {
	if a.Kind != b.Kind {
		return op == vql.OpNE
	}
	c := a.Compare(b)
	switch op {
	case vql.OpLT:
		return c < 0
	case vql.OpLE:
		return c <= 0
	case vql.OpGT:
		return c > 0
	case vql.OpGE:
		return c >= 0
	case vql.OpEQ:
		return c == 0
	case vql.OpNE:
		return c != 0
	}
	return false
}

// maxEditDistance converts a dist() bound on strings into the maximum integer
// edit distance: dist < b means edit <= ceil(b)-1, dist <= b means edit <=
// floor(b). A negative result means the predicate is unsatisfiable.
func maxEditDistance(op vql.CompareOp, bound float64) int {
	if op == vql.OpLE {
		return int(math.Floor(bound))
	}
	return int(math.Ceil(bound)) - 1
}

// numericDistBounds converts a numeric dist() predicate dist(x, c) op b into
// the interval [c-b, c+b]; open endpoints for the strict operator.
func numericDistBounds(center, bound float64, op vql.CompareOp) (lo, hi ops.Bound) {
	return ops.NumericDistBounds(center, bound, op == vql.OpLT)
}
