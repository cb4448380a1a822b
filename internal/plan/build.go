package plan

import (
	"fmt"
	"math"

	"repro/internal/ops"
	"repro/internal/vql"
)

// Options tunes planning.
type Options struct {
	// Similar configures every similarity operator in the plan (method
	// selection: naive / q-grams / q-samples).
	Similar ops.SimilarOptions
	// DisableTopNFastPath forces rank-aware queries through the general
	// materialize-then-sort path (used by tests and ablations).
	DisableTopNFastPath bool
}

// patternInfo is the planner's working state for one pattern.
type patternInfo struct {
	pat vql.Pattern
	// access filters claimed by this pattern's access path:
	distLit *vql.Filter // dist(var-of-pattern, literal) predicate
	numLo   *ops.Bound
	numHi   *ops.Bound
	strLo   *ops.StrBound
	strHi   *ops.StrBound
	eqVal   *vql.Filter // var = literal predicate on the value var
	used    bool
}

// Build compiles a validated query into a physical plan.
func Build(q *vql.Query, opts Options) (*Plan, error) {
	if err := vql.Validate(q); err != nil {
		return nil, err
	}
	p := &Plan{Query: q}

	infos := make([]*patternInfo, len(q.Patterns))
	for i := range q.Patterns {
		infos[i] = &patternInfo{pat: q.Patterns[i]}
	}
	filterUsed := make([]bool, len(q.Filters))

	// Attach single-variable filters to the pattern that binds the variable,
	// turning them into access-path constraints. Attachment only selects the
	// access path; every filter is additionally applied as a (local, free)
	// post-filter once its variables are bound, so a pattern resolved via a
	// join instead of its seed access path still honours the predicate.
	for fi := range q.Filters {
		f := &q.Filters[fi]
		switch f.Kind {
		case vql.FilterDist:
			v, _, ok := varAndLiteral(f)
			if !ok {
				continue // var-var dist: a join predicate, handled later
			}
			for _, info := range infos {
				if info.distLit != nil {
					continue
				}
				// Instance level: value var of a constant-attr pattern.
				// Schema level: attr var of a pattern.
				if (info.pat.Val.IsVar() && info.pat.Val.Text == v && !info.pat.Attr.IsVar()) ||
					(info.pat.Attr.IsVar() && info.pat.Attr.Text == v) {
					info.distLit = f
					break
				}
			}
		case vql.FilterCompare:
			attachCompare(infos, f)
		}
	}

	// Fast path: single pattern, rank-aware ORDER BY + LIMIT, no extra work.
	if !opts.DisableTopNFastPath {
		if s := topNFastPath(q, infos, opts); s != nil {
			p.Steps = append(p.Steps, s)
			appendRemainingFilters(p, q, filterUsed)
			return p, nil
		}
	}

	bound := map[string]bool{}
	for placed := 0; placed < len(infos); placed++ {
		next, step := chooseNext(infos, q, bound, filterUsed, opts)
		if next == nil {
			return nil, fmt.Errorf("plan: no executable pattern (internal planner error)")
		}
		next.used = true
		p.Steps = append(p.Steps, step)
		for _, t := range []vql.Term{next.pat.OID, next.pat.Attr, next.pat.Val} {
			if t.IsVar() {
				bound[t.Text] = true
			}
		}
		// Apply any now-evaluable filters immediately to shrink the
		// intermediate result.
		for fi := range q.Filters {
			if filterUsed[fi] {
				continue
			}
			f := q.Filters[fi]
			if filterVarsBound(f, bound) {
				p.Steps = append(p.Steps, &stepFilter{filter: f})
				filterUsed[fi] = true
			}
		}
	}
	appendRemainingFilters(p, q, filterUsed)
	return p, nil
}

// appendRemainingFilters adds every unconsumed filter as a final row filter.
// Access-path filters with strict bounds are also re-applied when the access
// path over-approximates (e.g. integer edit-distance conversion is exact, so
// dist filters claimed by similarity scans are not re-applied).
func appendRemainingFilters(p *Plan, q *vql.Query, used []bool) {
	for fi := range q.Filters {
		if !used[fi] {
			p.Steps = append(p.Steps, &stepFilter{filter: q.Filters[fi]})
			used[fi] = true
		}
	}
}

// varAndLiteral decomposes a dist filter into its variable and literal side.
func varAndLiteral(f *vql.Filter) (v string, lit vql.Term, ok bool) {
	switch {
	case f.Left.IsVar() && !f.Right.IsVar():
		return f.Left.Text, f.Right, true
	case f.Right.IsVar() && !f.Left.IsVar():
		return f.Right.Text, f.Left, true
	}
	return "", vql.Term{}, false
}

// attachCompare claims `?v op literal` comparisons as range or equality
// constraints of the pattern binding ?v in value position.
func attachCompare(infos []*patternInfo, f *vql.Filter) {
	var v string
	var lit vql.Term
	var op vql.CompareOp
	switch {
	case f.Left.IsVar() && !f.Right.IsVar():
		v, lit, op = f.Left.Text, f.Right, f.Op
	case f.Right.IsVar() && !f.Left.IsVar():
		// literal op var: mirror the operator.
		v, lit = f.Right.Text, f.Left
		switch f.Op {
		case vql.OpLT:
			op = vql.OpGT
		case vql.OpLE:
			op = vql.OpGE
		case vql.OpGT:
			op = vql.OpLT
		case vql.OpGE:
			op = vql.OpLE
		default:
			op = f.Op
		}
	default:
		return
	}
	for _, info := range infos {
		if !info.pat.Val.IsVar() || info.pat.Val.Text != v || info.pat.Attr.IsVar() {
			continue
		}
		isStr := lit.Kind == vql.TermString || lit.Kind == vql.TermIdent
		switch {
		case op == vql.OpEQ && info.eqVal == nil:
			info.eqVal = f
		case lit.Kind == vql.TermNumber && (op == vql.OpLT || op == vql.OpLE):
			if info.numHi == nil || lit.Num < info.numHi.Value {
				info.numHi = &ops.Bound{Value: lit.Num, Open: op == vql.OpLT}
			}
		case lit.Kind == vql.TermNumber && (op == vql.OpGT || op == vql.OpGE):
			if info.numLo == nil || lit.Num > info.numLo.Value {
				info.numLo = &ops.Bound{Value: lit.Num, Open: op == vql.OpGT}
			}
		case isStr && (op == vql.OpLT || op == vql.OpLE):
			if info.strHi == nil || lit.Text < info.strHi.Value {
				info.strHi = &ops.StrBound{Value: lit.Text, Open: op == vql.OpLT}
			}
		case isStr && (op == vql.OpGT || op == vql.OpGE):
			if info.strLo == nil || lit.Text > info.strLo.Value {
				info.strLo = &ops.StrBound{Value: lit.Text, Open: op == vql.OpGT}
			}
		}
		return
	}
}

// filterVarsBound reports whether every variable of a filter is bound.
func filterVarsBound(f vql.Filter, bound map[string]bool) bool {
	for _, t := range []vql.Term{f.Left, f.Right} {
		if t.IsVar() && !bound[t.Text] {
			return false
		}
	}
	return true
}

// seedCost scores a pattern's standalone access path; lower is better.
func seedCost(info *patternInfo) int {
	p := info.pat
	switch {
	case !p.OID.IsVar():
		return 0 // direct object lookup
	case !p.Attr.IsVar() && !p.Val.IsVar():
		return 1 // exact attr=value
	case !p.Attr.IsVar() && info.eqVal != nil:
		return 1
	case !p.Attr.IsVar() && info.distLit != nil:
		return 2 // instance-level similarity scan
	case p.Attr.IsVar() && !p.Val.IsVar():
		return 2 // keyword lookup on the value index
	case p.Attr.IsVar() && info.distLit != nil:
		return 3 // schema-level similarity scan
	case !p.Attr.IsVar() && (info.numLo != nil || info.numHi != nil):
		return 3 // numeric range scan
	case !p.Attr.IsVar() && (info.strLo != nil || info.strHi != nil):
		return 3 // lexicographic range scan
	case !p.Attr.IsVar():
		return 5 // full attribute scan
	default:
		return 7 // fully unconstrained
	}
}

// chooseNext picks the next pattern and builds its step: connected patterns
// (sharing a bound variable) join via oid, equality or similarity; otherwise
// the cheapest remaining seed runs standalone (cartesian with current rows).
func chooseNext(infos []*patternInfo, q *vql.Query, bound map[string]bool,
	filterUsed []bool, opts Options) (*patternInfo, Step) {

	// 1. A pattern whose oid variable is bound joins by object lookup.
	for _, info := range infos {
		if info.used {
			continue
		}
		if info.pat.OID.IsVar() && bound[info.pat.OID.Text] {
			return info, &stepOidJoin{pattern: info.pat, oidVar: info.pat.OID.Text}
		}
	}
	// 2. A pattern with constant attribute whose value var is bound joins by
	// exact lookups.
	for _, info := range infos {
		if info.used || info.pat.Attr.IsVar() {
			continue
		}
		if info.pat.Val.IsVar() && bound[info.pat.Val.Text] {
			return info, &stepEqJoin{pattern: info.pat, attr: info.pat.Attr.Text, valVar: info.pat.Val.Text}
		}
	}
	// 3. A var-var dist filter bridging a bound variable to an unused
	// pattern's value (or attr) var becomes a similarity join.
	for fi := range q.Filters {
		f := &q.Filters[fi]
		if filterUsed[fi] || f.Kind != vql.FilterDist || !f.Left.IsVar() || !f.Right.IsVar() {
			continue
		}
		l, r := f.Left.Text, f.Right.Text
		var boundVar, freeVar string
		switch {
		case bound[l] && !bound[r]:
			boundVar, freeVar = l, r
		case bound[r] && !bound[l]:
			boundVar, freeVar = r, l
		default:
			continue
		}
		for _, info := range infos {
			if info.used {
				continue
			}
			d := maxEditDistance(f.Op, f.Bound)
			switch {
			case info.pat.Val.IsVar() && info.pat.Val.Text == freeVar && !info.pat.Attr.IsVar():
				return info, &stepSimilarJoin{pattern: info.pat, attr: info.pat.Attr.Text,
					leftVar: boundVar, d: d, opts: opts.Similar}
			case info.pat.Attr.IsVar() && info.pat.Attr.Text == freeVar:
				return info, &stepSimilarJoin{pattern: info.pat, attr: "",
					leftVar: boundVar, d: d, opts: opts.Similar}
			}
		}
	}
	// 4. Cheapest remaining seed.
	var best *patternInfo
	bestCost := math.MaxInt
	for _, info := range infos {
		if info.used {
			continue
		}
		if c := seedCost(info); c < bestCost {
			best, bestCost = info, c
		}
	}
	if best == nil {
		return nil, nil
	}
	return best, seedStep(best, opts)
}

// seedStep builds the standalone access path for a pattern.
func seedStep(info *patternInfo, opts Options) Step {
	p := info.pat
	switch {
	case !p.OID.IsVar():
		return &stepLookupOID{pattern: p, oid: p.OID.Text}
	case !p.Attr.IsVar() && !p.Val.IsVar():
		v, _ := p.Val.Value()
		return &stepSelectEq{pattern: p, attr: p.Attr.Text, val: v}
	case !p.Attr.IsVar() && info.eqVal != nil:
		lit := info.eqVal.Right
		if info.eqVal.Right.IsVar() {
			lit = info.eqVal.Left
		}
		v, _ := lit.Value()
		return &stepSelectEq{pattern: p, attr: p.Attr.Text, val: v}
	case !p.Attr.IsVar() && info.distLit != nil:
		return similarSeed(info, p.Attr.Text, opts)
	case p.Attr.IsVar() && !p.Val.IsVar():
		v, _ := p.Val.Value()
		return &stepKeyword{pattern: p, val: v}
	case p.Attr.IsVar() && info.distLit != nil:
		return similarSeed(info, "", opts)
	case !p.Attr.IsVar() && (info.numLo != nil || info.numHi != nil):
		return &stepNumRange{pattern: p, attr: p.Attr.Text, lo: info.numLo, hi: info.numHi}
	case !p.Attr.IsVar() && (info.strLo != nil || info.strHi != nil):
		return &stepStrRange{pattern: p, attr: p.Attr.Text, lo: info.strLo, hi: info.strHi}
	case !p.Attr.IsVar():
		return &stepScanAttr{pattern: p, attr: p.Attr.Text}
	default:
		return &stepScanAll{pattern: p}
	}
}

// similarSeed builds the similarity access path from a dist(var, literal)
// filter: string literals use Algorithm 2 (with the integer edit-distance
// conversion of the bound); numeric literals map to a range query per
// Section 4.
func similarSeed(info *patternInfo, attr string, opts Options) Step {
	f := info.distLit
	_, lit, _ := varAndLiteral(f)
	if lit.Kind == vql.TermNumber && attr != "" {
		lo, hi := numericDistBounds(lit.Num, f.Bound, f.Op)
		return &stepNumRange{pattern: info.pat, attr: attr, lo: &lo, hi: &hi}
	}
	return &stepSimilarScan{
		pattern: info.pat,
		attr:    attr,
		needle:  lit.Text,
		d:       maxEditDistance(f.Op, f.Bound),
		opts:    opts.Similar,
	}
}

// topNFastPath recognizes single-pattern rank-aware queries and maps them
// onto the top-N operators: ORDER BY ?v NN lit LIMIT n (Algorithm 4 with NN,
// or iterative-deepening string top-N), and ORDER BY ?v ASC|DESC LIMIT n on
// a numeric attribute (MIN/MAX).
func topNFastPath(q *vql.Query, infos []*patternInfo, opts Options) Step {
	if len(infos) != 1 || q.Order == nil || q.Limit <= 0 || q.Offset != 0 {
		return nil
	}
	info := infos[0]
	p := info.pat
	// The pattern must be (?o, attr, ?v) with the ORDER BY on ?v, and no
	// other access constraint claimed by the pattern.
	if p.Attr.IsVar() || !p.Val.IsVar() || !p.OID.IsVar() || q.Order.Var != p.Val.Text {
		return nil
	}
	if info.distLit != nil || info.eqVal != nil || info.numLo != nil || info.numHi != nil ||
		info.strLo != nil || info.strHi != nil {
		return nil
	}
	if len(q.Filters) != 0 {
		return nil
	}
	attr := p.Attr.Text
	o := q.Order
	topOpts := ops.TopNOptions{Similar: opts.Similar}
	if o.NN {
		if o.NNTarget.Kind == vql.TermNumber {
			info.used = true
			return &stepTopN{pattern: p, attr: attr, n: q.Limit, rank: ops.RankNN,
				numRef: o.NNTarget.Num, opts: topOpts}
		}
		info.used = true
		return &stepTopN{pattern: p, attr: attr, n: q.Limit, isString: true,
			strNeedle: o.NNTarget.Text, opts: topOpts}
	}
	// ASC/DESC with LIMIT on a numeric attribute: MIN/MAX. (String order-by
	// takes the general path; lexicographic top-N is not Algorithm 4.)
	rank := ops.RankMin
	if o.Desc {
		rank = ops.RankMax
	}
	info.used = true
	return &stepTopN{pattern: p, attr: attr, n: q.Limit, rank: rank, opts: topOpts}
}
