package plan

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ops"
	"repro/internal/triples"
	"repro/internal/vql"
)

// bindPattern extends a row with the bindings a concrete triple induces under
// a pattern, or reports a mismatch against already-bound variables.
func bindPattern(r Row, p vql.Pattern, tr triples.Triple) (Row, bool) {
	out := r
	extended := false
	bind := func(t vql.Term, v triples.Value) bool {
		if !t.IsVar() {
			lit, err := t.Value()
			return err == nil && lit.Equal(v)
		}
		if cur, ok := out[t.Text]; ok {
			return cur.Equal(v)
		}
		if !extended {
			out = r.clone()
			extended = true
		}
		out[t.Text] = v
		return true
	}
	if !bind(p.OID, triples.String(tr.OID)) {
		return nil, false
	}
	if !bind(p.Attr, triples.String(tr.Attr)) {
		return nil, false
	}
	if !bind(p.Val, tr.Val) {
		return nil, false
	}
	return out, true
}

// joinTriples natural-joins input rows with the triples produced for a
// pattern.
func joinTriples(in []Row, p vql.Pattern, ts []triples.Triple) []Row {
	var out []Row
	for _, r := range in {
		for _, tr := range ts {
			if nr, ok := bindPattern(r, p, tr); ok {
				out = append(out, nr)
			}
		}
	}
	return out
}

// distinctStrings returns the sorted distinct string bindings of a variable.
func distinctStrings(in []Row, varName string) []string {
	set := map[string]bool{}
	for _, r := range in {
		if v, ok := r[varName]; ok && v.Kind == triples.KindString {
			set[v.Str] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Seed steps: evaluate a pattern from scratch and natural-join with input.
// ---------------------------------------------------------------------------

// stepSelectEq seeds rows via an exact attr#value lookup.
type stepSelectEq struct {
	pattern vql.Pattern
	attr    string
	val     triples.Value
}

func (s *stepSelectEq) Describe() string {
	return fmt.Sprintf("SelectEq %s [attr=%s value=%s]", s.pattern, s.attr, s.val.Render())
}

func (s *stepSelectEq) Run(ctx *Context, in []Row) ([]Row, error) {
	ts, err := ctx.Store.SelectEq(ctx.Tally, ctx.From, s.attr, s.val)
	if err != nil {
		return nil, err
	}
	return joinTriples(in, s.pattern, ts), nil
}

// stepLookupOID seeds rows from a constant-oid pattern.
type stepLookupOID struct {
	pattern vql.Pattern
	oid     string
}

func (s *stepLookupOID) Describe() string {
	return fmt.Sprintf("LookupObject %s [oid=%s]", s.pattern, s.oid)
}

func (s *stepLookupOID) Run(ctx *Context, in []Row) ([]Row, error) {
	objs, err := ctx.objects([]string{s.oid})
	if err != nil {
		return nil, err
	}
	var ts []triples.Triple
	if o, ok := objs[s.oid]; ok {
		for _, f := range o.Fields {
			ts = append(ts, triples.Triple{OID: o.OID, Attr: f.Name, Val: f.Val})
		}
	}
	return joinTriples(in, s.pattern, ts), nil
}

// stepSimilarScan seeds rows via the similarity operator (Algorithm 2),
// instance level (attr set) or schema level (attr empty).
type stepSimilarScan struct {
	pattern vql.Pattern
	attr    string // "" = schema level
	needle  string
	d       int
	opts    ops.SimilarOptions
}

func (s *stepSimilarScan) Describe() string {
	level := "instance"
	if s.attr == "" {
		level = "schema"
	}
	return fmt.Sprintf("SimilarScan %s [%s %s dist(%q)<=%d]", s.pattern, s.opts.Method, level, s.needle, s.d)
}

func (s *stepSimilarScan) Run(ctx *Context, in []Row) ([]Row, error) {
	if s.d < 0 {
		return nil, nil // unsatisfiable bound, e.g. dist(...) < 0
	}
	ms, err := ctx.Store.Similar(ctx.Tally, ctx.From, s.needle, s.attr, s.d, s.opts)
	if err != nil {
		return nil, err
	}
	var ts []triples.Triple
	for _, m := range ms {
		ctx.cachePut(m.Object)
		if s.attr == "" {
			// Schema level: the matched attribute name; its value comes
			// from the object.
			if v, ok := m.Object.Get(m.Attr); ok {
				ts = append(ts, triples.Triple{OID: m.OID, Attr: m.Attr, Val: v})
			}
		} else {
			ts = append(ts, triples.Triple{OID: m.OID, Attr: m.Attr, Val: triples.String(m.Matched)})
		}
	}
	return joinTriples(in, s.pattern, ts), nil
}

// stepNumRange seeds rows via a numeric range scan.
type stepNumRange struct {
	pattern vql.Pattern
	attr    string
	lo, hi  *ops.Bound
}

func (s *stepNumRange) Describe() string {
	render := func(b *ops.Bound, def string) string {
		if b == nil {
			return def
		}
		br := "["
		if b.Open {
			br = "("
		}
		return fmt.Sprintf("%s%g", br, b.Value)
	}
	return fmt.Sprintf("RangeScan %s [attr=%s %s..%s]", s.pattern, s.attr,
		render(s.lo, "(-inf"), render(s.hi, "+inf)"))
}

func (s *stepNumRange) Run(ctx *Context, in []Row) ([]Row, error) {
	ts, err := ctx.Store.SelectNumRange(ctx.Tally, ctx.From, s.attr, s.lo, s.hi)
	if err != nil {
		return nil, err
	}
	return joinTriples(in, s.pattern, ts), nil
}

// stepStrRange seeds rows via a lexicographic string range scan, served as
// one contiguous key range thanks to order-preserving hashing.
type stepStrRange struct {
	pattern vql.Pattern
	attr    string
	lo, hi  *ops.StrBound
}

func (s *stepStrRange) Describe() string {
	render := func(b *ops.StrBound, def string) string {
		if b == nil {
			return def
		}
		br := "["
		if b.Open {
			br = "("
		}
		return fmt.Sprintf("%s%q", br, b.Value)
	}
	return fmt.Sprintf("StrRangeScan %s [attr=%s %s..%s]", s.pattern, s.attr,
		render(s.lo, "(min"), render(s.hi, "max)"))
}

func (s *stepStrRange) Run(ctx *Context, in []Row) ([]Row, error) {
	ts, err := ctx.Store.SelectStrRange(ctx.Tally, ctx.From, s.attr, s.lo, s.hi)
	if err != nil {
		return nil, err
	}
	return joinTriples(in, s.pattern, ts), nil
}

// stepScanAttr seeds rows by scanning every triple of an attribute.
type stepScanAttr struct {
	pattern vql.Pattern
	attr    string
}

func (s *stepScanAttr) Describe() string {
	return fmt.Sprintf("ScanAttr %s [attr=%s]", s.pattern, s.attr)
}

func (s *stepScanAttr) Run(ctx *Context, in []Row) ([]Row, error) {
	ts, err := ctx.Store.ScanAttr(ctx.Tally, ctx.From, s.attr)
	if err != nil {
		return nil, err
	}
	return joinTriples(in, s.pattern, ts), nil
}

// stepKeyword seeds rows via the value index ("any attribute = v").
type stepKeyword struct {
	pattern vql.Pattern
	val     triples.Value
}

func (s *stepKeyword) Describe() string {
	return fmt.Sprintf("KeywordLookup %s [value=%s]", s.pattern, s.val.Render())
}

func (s *stepKeyword) Run(ctx *Context, in []Row) ([]Row, error) {
	ts, err := ctx.Store.KeywordSearch(ctx.Tally, ctx.From, s.val)
	if err != nil {
		return nil, err
	}
	return joinTriples(in, s.pattern, ts), nil
}

// stepScanAll seeds rows by scanning the whole attribute-value family — the
// fallback for fully unconstrained patterns, "a very expensive operation".
type stepScanAll struct {
	pattern vql.Pattern
}

func (s *stepScanAll) Describe() string {
	return fmt.Sprintf("ScanAll %s", s.pattern)
}

func (s *stepScanAll) Run(ctx *Context, in []Row) ([]Row, error) {
	attrs, err := ctx.Store.Attributes(ctx.Tally, ctx.From)
	if err != nil {
		return nil, err
	}
	var all []triples.Triple
	for _, a := range attrs {
		ts, err := ctx.Store.ScanAttr(ctx.Tally, ctx.From, a)
		if err != nil {
			return nil, err
		}
		all = append(all, ts...)
	}
	return joinTriples(in, s.pattern, all), nil
}

// ---------------------------------------------------------------------------
// Join steps: extend rows using already-bound variables.
// ---------------------------------------------------------------------------

// stepOidJoin resolves a pattern whose oid variable is already bound by
// reconstructing the bound objects (batched, cached) and matching fields.
type stepOidJoin struct {
	pattern vql.Pattern
	oidVar  string
}

func (s *stepOidJoin) Describe() string {
	return fmt.Sprintf("OidJoin %s [via ?%s]", s.pattern, s.oidVar)
}

func (s *stepOidJoin) Run(ctx *Context, in []Row) ([]Row, error) {
	objs, err := ctx.objects(distinctStrings(in, s.oidVar))
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, r := range in {
		ov, ok := r[s.oidVar]
		if !ok || ov.Kind != triples.KindString {
			continue
		}
		o, ok := objs[ov.Str]
		if !ok {
			continue
		}
		for _, f := range o.Fields {
			tr := triples.Triple{OID: o.OID, Attr: f.Name, Val: f.Val}
			if nr, ok := bindPattern(r, s.pattern, tr); ok {
				out = append(out, nr)
			}
		}
	}
	return out, nil
}

// stepEqJoin resolves a pattern whose value variable is already bound and
// whose attribute is constant, with one exact lookup per distinct value.
type stepEqJoin struct {
	pattern vql.Pattern
	attr    string
	valVar  string
}

func (s *stepEqJoin) Describe() string {
	return fmt.Sprintf("EqJoin %s [attr=%s via ?%s]", s.pattern, s.attr, s.valVar)
}

func (s *stepEqJoin) Run(ctx *Context, in []Row) ([]Row, error) {
	// Distinct bound values (either kind); one SelectEq each.
	seen := map[string]triples.Value{}
	for _, r := range in {
		if v, ok := r[s.valVar]; ok {
			seen[v.Kind.String()+v.Render()] = v
		}
	}
	keysSorted := make([]string, 0, len(seen))
	for k := range seen {
		keysSorted = append(keysSorted, k)
	}
	sort.Strings(keysSorted)
	byValue := map[string][]triples.Triple{}
	for _, k := range keysSorted {
		v := seen[k]
		ts, err := ctx.Store.SelectEq(ctx.Tally, ctx.From, s.attr, v)
		if err != nil {
			return nil, err
		}
		byValue[k] = ts
	}
	var out []Row
	for _, r := range in {
		v, ok := r[s.valVar]
		if !ok {
			continue
		}
		for _, tr := range byValue[v.Kind.String()+v.Render()] {
			if nr, ok := bindPattern(r, s.pattern, tr); ok {
				out = append(out, nr)
			}
		}
	}
	return out, nil
}

// stepSimilarJoin resolves a pattern via a dist() predicate connecting an
// already-bound variable to the pattern's value (instance level) or attribute
// (schema level) variable — Algorithm 3's inner loop, one similarity
// selection per distinct bound value.
type stepSimilarJoin struct {
	pattern vql.Pattern
	attr    string // "" = schema level
	leftVar string
	d       int
	opts    ops.SimilarOptions
}

func (s *stepSimilarJoin) Describe() string {
	level := "instance"
	if s.attr == "" {
		level = "schema"
	}
	return fmt.Sprintf("SimilarJoin %s [%s %s dist(?%s,·)<=%d]",
		s.pattern, s.opts.Method, level, s.leftVar, s.d)
}

func (s *stepSimilarJoin) Run(ctx *Context, in []Row) ([]Row, error) {
	if s.d < 0 {
		return nil, nil
	}
	matchesByNeedle := map[string][]triples.Triple{}
	for _, needle := range distinctStrings(in, s.leftVar) {
		ms, err := ctx.Store.Similar(ctx.Tally, ctx.From, needle, s.attr, s.d, s.opts)
		if err != nil {
			return nil, err
		}
		var ts []triples.Triple
		for _, m := range ms {
			ctx.cachePut(m.Object)
			if s.attr == "" {
				if v, ok := m.Object.Get(m.Attr); ok {
					ts = append(ts, triples.Triple{OID: m.OID, Attr: m.Attr, Val: v})
				}
			} else {
				ts = append(ts, triples.Triple{OID: m.OID, Attr: m.Attr, Val: triples.String(m.Matched)})
			}
		}
		matchesByNeedle[needle] = ts
	}
	var out []Row
	for _, r := range in {
		lv, ok := r[s.leftVar]
		if !ok || lv.Kind != triples.KindString {
			continue
		}
		for _, tr := range matchesByNeedle[lv.Str] {
			if nr, ok := bindPattern(r, s.pattern, tr); ok {
				out = append(out, nr)
			}
		}
	}
	return out, nil
}

// stepFilter drops rows failing a FILTER predicate.
type stepFilter struct {
	filter vql.Filter
}

func (s *stepFilter) Describe() string { return "Filter " + s.filter.String() }

func (s *stepFilter) Run(_ *Context, in []Row) ([]Row, error) {
	var out []Row
	for _, r := range in {
		if evalFilter(s.filter, r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// stepTopN is the rank-aware fast path: a single-pattern query ordered by NN
// (or ASC/DESC on numbers) with a LIMIT maps directly onto the top-N
// operators of Algorithms 4 and 5.
type stepTopN struct {
	pattern vql.Pattern
	attr    string
	n       int
	rank    ops.Rank
	// Numeric reference (NN) or string needle.
	numRef    float64
	strNeedle string
	isString  bool
	opts      ops.TopNOptions
}

func (s *stepTopN) Describe() string {
	if s.isString {
		return fmt.Sprintf("TopNString %s [attr=%s n=%d needle=%q maxdist=%d]",
			s.pattern, s.attr, s.n, s.strNeedle, ops.MaxDistance)
	}
	return fmt.Sprintf("TopN %s [attr=%s n=%d rank=%s ref=%g]",
		s.pattern, s.attr, s.n, s.rank, s.numRef)
}

func (s *stepTopN) Run(ctx *Context, in []Row) ([]Row, error) {
	var ts []triples.Triple
	if s.isString {
		ms, err := ctx.Store.TopNString(ctx.Tally, ctx.From, s.attr, s.strNeedle, s.n, ops.MaxDistance, s.opts)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			ctx.cachePut(m.Object)
			ts = append(ts, triples.Triple{OID: m.OID, Attr: m.Attr, Val: triples.String(m.Matched)})
		}
	} else {
		ms, err := ctx.Store.TopN(ctx.Tally, ctx.From, s.attr, s.n, s.rank, s.numRef)
		if errors.Is(err, ops.ErrNoNumericValues) {
			// The attribute holds strings: fall back to a scan; Execute's
			// sort and limit produce the lexicographic top N.
			all, err2 := ctx.Store.ScanAttr(ctx.Tally, ctx.From, s.attr)
			if err2 != nil {
				return nil, err2
			}
			return joinTriples(in, s.pattern, all), nil
		}
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			ctx.cachePut(m.Object)
			ts = append(ts, triples.Triple{OID: m.OID, Attr: m.Attr, Val: triples.Number(m.Value)})
		}
	}
	return joinTriples(in, s.pattern, ts), nil
}
