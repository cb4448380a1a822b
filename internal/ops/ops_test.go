package ops

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/strdist"
	"repro/internal/triples"
)

// fixture is a loaded store over a small corpus with a brute-force oracle.
type fixture struct {
	store *Store
	net   *simnet.Network
	words []string // instance values of attribute "word"
	oids  map[string]string
}

// newWordFixture loads nWords synthetic words under attribute "word".
func newWordFixture(t testing.TB, nPeers, nWords int, cfg StoreConfig) *fixture {
	t.Helper()
	return newFixtureFromWords(t, nPeers, testWords(nWords), cfg)
}

// testWords returns nWords distinct seeded words over a five-letter alphabet.
func testWords(nWords int) []string {
	rng := rand.New(rand.NewSource(99))
	seen := map[string]bool{}
	var words []string
	for len(words) < nWords {
		n := 3 + rng.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(5))
		}
		w := string(b)
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	return words
}

func newFixtureFromWords(t testing.TB, nPeers int, words []string, cfg StoreConfig) *fixture {
	t.Helper()
	return wordFixture(t, nPeers, words, cfg, pgrid.DefaultConfig())
}

// wordFixture loads one "word" object per word into an nPeers grid of the
// given configuration and keeps the brute-force oracle's oid map.
func wordFixture(t testing.TB, nPeers int, words []string, cfg StoreConfig, gcfg pgrid.Config) *fixture {
	t.Helper()
	var tuples []triples.Tuple
	oids := map[string]string{}
	for i, w := range words {
		oid := fmt.Sprintf("w%05d", i)
		oids[oid] = w
		tuples = append(tuples, triples.MustTuple(oid, "word", w))
	}
	f := loadOnGrid(t, nPeers, tuples, cfg, gcfg)
	f.words, f.oids = words, oids
	return f
}

// bruteSimilar returns the oids whose word is within edit distance d.
func (f *fixture) bruteSimilar(needle string, d int) map[string]bool {
	out := map[string]bool{}
	for oid, w := range f.oids {
		if strdist.WithinDistance(needle, w, d) {
			out[oid] = true
		}
	}
	return out
}

func matchOIDs(ms []Match) map[string]bool {
	out := map[string]bool{}
	for _, m := range ms {
		out[m.OID] = true
	}
	return out
}

func methods() []Method { return []Method{MethodQGrams, MethodQSamples, MethodNaive} }

func TestSimilarMatchesBruteForceAllMethods(t *testing.T) {
	f := newWordFixture(t, 24, 300, StoreConfig{})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		needle := f.words[rng.Intn(len(f.words))]
		if trial%3 == 0 { // also query perturbed needles
			needle = needle + "x"
		}
		for d := 0; d <= 3; d++ {
			want := f.bruteSimilar(needle, d)
			for _, m := range methods() {
				got, err := f.store.Similar(nil, simnet.NodeID(rng.Intn(24)), needle, "word", d,
					SimilarOptions{Method: m})
				if err != nil {
					t.Fatalf("%v d=%d: %v", m, d, err)
				}
				gotOIDs := matchOIDs(got)
				if len(gotOIDs) != len(want) {
					t.Fatalf("%v needle=%q d=%d: got %d matches, want %d",
						m, needle, d, len(gotOIDs), len(want))
				}
				for oid := range want {
					if !gotOIDs[oid] {
						t.Fatalf("%v needle=%q d=%d: missing %s (%q)", m, needle, d, oid, f.oids[oid])
					}
				}
			}
		}
	}
}

func TestSimilarDistancesAreExact(t *testing.T) {
	f := newWordFixture(t, 16, 200, StoreConfig{})
	needle := f.words[0]
	ms, err := f.store.Similar(nil, 0, needle, "word", 2, SimilarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if got := strdist.Levenshtein(needle, m.Matched); got != m.Distance {
			t.Errorf("reported distance %d for %q vs %q, true %d", m.Distance, needle, m.Matched, got)
		}
		if m.Object.OID != m.OID {
			t.Errorf("object oid mismatch")
		}
		if v, ok := m.Object.Get("word"); !ok || v.Str != m.Matched {
			t.Errorf("object not fully reconstructed: %+v", m.Object)
		}
	}
}

func TestSimilarShortNeedleCompleteWithFallback(t *testing.T) {
	// Single-character values within distance 1 share no grams; only the
	// short index keeps the result complete.
	words := []string{"e", "f", "g", "ee", "ff", "abcdef", "abcdeg"}
	f := newFixtureFromWords(t, 8, words, StoreConfig{})
	want := f.bruteSimilar("e", 1) // e, f, g, ee
	got, err := f.store.Similar(nil, 0, "e", "word", 1, SimilarOptions{Method: MethodQGrams})
	if err != nil {
		t.Fatal(err)
	}
	if len(matchOIDs(got)) != len(want) {
		t.Fatalf("with fallback: got %d, want %d", len(got), len(want))
	}
	// Without the fallback the gram method may miss; it must never return
	// false positives though.
	noFb, err := f.store.Similar(nil, 0, "e", "word", 1,
		SimilarOptions{Method: MethodQGrams, NoShortFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range noFb {
		if !want[m.OID] {
			t.Errorf("false positive without fallback: %+v", m)
		}
	}
	if len(noFb) >= len(got) {
		t.Log("gram path unexpectedly complete without fallback (data-dependent, fine)")
	}
}

func TestSimilarSchemaLevel(t *testing.T) {
	// Objects with heterogeneous attribute spellings: dlrid vs dlrid-like.
	tuples := []triples.Tuple{
		triples.MustTuple("d1", "dlrid", "x1", "name", "smith"),
		triples.MustTuple("d2", "dleid", "x2", "name", "jones"),
		triples.MustTuple("d3", "dealerid", "x3", "name", "brown"),
		triples.MustTuple("d4", "price", 100.0),
	}
	f := loadTuples(t, 10, tuples, StoreConfig{})
	for _, m := range methods() {
		ms, err := f.store.Similar(nil, 0, "dlrid", "", 2, SimilarOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		gotAttrs := map[string]bool{}
		for _, match := range ms {
			gotAttrs[match.Attr] = true
		}
		// dlrid (0), dleid (2) match; dealerid (3) and price/name do not.
		if !gotAttrs["dlrid"] || !gotAttrs["dleid"] {
			t.Errorf("%v: schema matches = %v", m, gotAttrs)
		}
		if gotAttrs["dealerid"] || gotAttrs["price"] || gotAttrs["name"] {
			t.Errorf("%v: false schema matches = %v", m, gotAttrs)
		}
	}
}

func loadTuples(t testing.TB, nPeers int, tuples []triples.Tuple, cfg StoreConfig) *fixture {
	t.Helper()
	return loadOnGrid(t, nPeers, tuples, cfg, pgrid.DefaultConfig())
}

// loadOnGrid loads tuples the way core.Open does: plan, build an nPeers grid
// over the plan's sample, apply the plan.
func loadOnGrid(t testing.TB, nPeers int, tuples []triples.Tuple, cfg StoreConfig, gcfg pgrid.Config) *fixture {
	t.Helper()
	p, err := PlanLoadStream(tuples, cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(nPeers)
	grid, err := pgrid.Build(net, nPeers, p.SampleKeys(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(grid, cfg)
	if err := store.ApplyLoadPlan(p, 1); err != nil {
		t.Fatal(err)
	}
	net.Collector().Reset()
	return &fixture{store: store, net: net}
}

func TestSimilarRejectsNegativeDistance(t *testing.T) {
	f := newWordFixture(t, 4, 20, StoreConfig{})
	if _, err := f.store.Similar(nil, 0, "x", "word", -1, SimilarOptions{}); err == nil {
		t.Error("negative distance accepted")
	}
}

func TestSimilarCostOrdering(t *testing.T) {
	// The paper's headline (Section 6): q-samples send fewer messages than
	// q-grams, and on large networks both beat the naive scan, whose cost
	// grows linearly in the number of peers. At small scale the naive
	// method "performs surprisingly well" — so the crossover assertion runs
	// on a larger grid with a realistic alphabet.
	rng := rand.New(rand.NewSource(5))
	seen := map[string]bool{}
	var words []string
	for len(words) < 900 {
		n := 5 + rng.Intn(7)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(14))
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	measure := func(peers int) map[Method]int64 {
		f := newFixtureFromWords(t, peers, words, StoreConfig{})
		cost := map[Method]int64{}
		queryRng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 10; trial++ {
			needle := f.words[queryRng.Intn(len(f.words))]
			from := simnet.NodeID(queryRng.Intn(peers))
			for _, m := range methods() {
				var tally metrics.Tally
				if _, err := f.store.Similar(&tally, from, needle, "word", 2, SimilarOptions{Method: m}); err != nil {
					t.Fatal(err)
				}
				cost[m] += tally.Messages
			}
		}
		return cost
	}
	small, large := measure(128), measure(2048)
	for _, c := range []map[Method]int64{small, large} {
		if c[MethodQSamples] > c[MethodQGrams] {
			t.Errorf("qsamples (%d msgs) costlier than qgrams (%d)", c[MethodQSamples], c[MethodQGrams])
		}
	}
	// Scaling: the naive method's cost grows much faster with the peer
	// count than the gram methods' (linear vs ~logarithmic).
	naiveGrowth := float64(large[MethodNaive]) / float64(small[MethodNaive])
	gramGrowth := float64(large[MethodQGrams]) / float64(small[MethodQGrams])
	if naiveGrowth < 2*gramGrowth {
		t.Errorf("naive growth %.2fx not clearly above gram growth %.2fx (16x more peers)",
			naiveGrowth, gramGrowth)
	}
	t.Logf("128 peers: %v", small)
	t.Logf("2048 peers: %v", large)
}

func TestSimJoinMatchesBruteForce(t *testing.T) {
	f := newWordFixture(t, 20, 120, StoreConfig{})
	for _, m := range methods() {
		pairs, err := f.store.SimJoin(nil, 0, "word", "word", 1,
			JoinOptions{Similar: SimilarOptions{Method: m}, LeftLimit: 25})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// Determine the left values actually used (sorted order, first 25).
		left := append([]string(nil), f.words...)
		sort.Strings(left)
		left = left[:25]
		want := 0
		for _, lv := range left {
			for _, rv := range f.words {
				if strdist.WithinDistance(lv, rv, 1) {
					want++
				}
			}
		}
		if len(pairs) != want {
			t.Errorf("%v: join produced %d pairs, want %d", m, len(pairs), want)
		}
		for _, p := range pairs {
			if !strdist.WithinDistance(p.LeftValue, p.Right.Matched, 1) {
				t.Errorf("%v: pair outside distance: %q vs %q", m, p.LeftValue, p.Right.Matched)
			}
		}
	}
}

func TestSimJoinDuplicateLeftValues(t *testing.T) {
	// Algorithm 3 runs one selection per left object, so two objects with
	// the same value are each paired with every match of that value.
	words := []string{"apple", "apple", "apply", "ample", "grape"}
	var tuples []triples.Tuple
	for i, w := range words {
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("o%d", i), "word", w))
	}
	f := loadTuples(t, 12, tuples, StoreConfig{})
	pairs, err := f.store.SimJoin(nil, 0, "word", "word", 1, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rights := make(map[string][]string)
	for _, p := range pairs {
		rights[p.Left.OID] = append(rights[p.Left.OID], p.Right.OID)
	}
	for _, oid := range []string{"o0", "o1"} {
		got := rights[oid]
		sort.Strings(got)
		if want := []string{"o0", "o1", "o2", "o3"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("left %s (apple) paired with %v, want %v", oid, got, want)
		}
	}
}

func TestSimJoinSchemaLevel(t *testing.T) {
	// Join dealer ids against attribute names (rn empty): the motivating
	// typo-detection example of Section 3.
	tuples := []triples.Tuple{
		triples.MustTuple("c1", "dealer", "dlrid"),
		triples.MustTuple("d1", "dlrid", "d-77", "addr", "main st"),
	}
	f := loadTuples(t, 8, tuples, StoreConfig{})
	pairs, err := f.store.SimJoin(nil, 0, "dealer", "", 1, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pairs {
		if p.LeftValue == "dlrid" && p.Right.Attr == "dlrid" {
			found = true
		}
	}
	if !found {
		t.Errorf("schema-level join missed dlrid attribute: %+v", pairs)
	}
}

// numFixture loads numeric tuples for top-N tests.
func numFixture(t testing.TB, nPeers int, values []float64) *fixture {
	t.Helper()
	var tuples []triples.Tuple
	for i, v := range values {
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("n%04d", i), "hp", v))
	}
	return loadTuples(t, nPeers, tuples, StoreConfig{})
}

func TestTopNMaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 500)
	for i := range values {
		values[i] = math.Round(rng.NormFloat64()*1000 + 5000)
	}
	f := numFixture(t, 32, values)
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for _, n := range []int{1, 5, 17} {
		got, err := f.store.TopN(nil, f.store.Grid().RandomPeer(), "hp", n, RankMax, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("TopN MAX %d returned %d", n, len(got))
		}
		for i := 0; i < n; i++ {
			if got[i].Value != sorted[i] {
				t.Fatalf("TopN MAX rank %d = %g, want %g", i, got[i].Value, sorted[i])
			}
		}
	}
}

func TestTopNMinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	values := make([]float64, 400)
	for i := range values {
		values[i] = rng.Float64() * 1e6
	}
	f := numFixture(t, 24, values)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	got, err := f.store.TopN(nil, f.store.Grid().RandomPeer(), "hp", 10, RankMin, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i].Value != sorted[i] {
			t.Fatalf("TopN MIN rank %d = %g, want %g", i, got[i].Value, sorted[i])
		}
	}
}

func TestTopNNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 600)
	for i := range values {
		values[i] = rng.Float64() * 10000
	}
	f := numFixture(t, 40, values)
	for _, center := range []float64{0, 777.7, 5000, 9999} {
		sorted := append([]float64(nil), values...)
		sort.Slice(sorted, func(i, j int) bool {
			return math.Abs(sorted[i]-center) < math.Abs(sorted[j]-center)
		})
		got, err := f.store.TopN(nil, f.store.Grid().RandomPeer(), "hp", 7, RankNN, center)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 7 {
			t.Fatalf("TopN NN returned %d", len(got))
		}
		for i := 0; i < 7; i++ {
			if math.Abs(got[i].Value-center) != math.Abs(sorted[i]-center) {
				t.Fatalf("center %g rank %d: |%g| vs want |%g|",
					center, i, got[i].Value-center, sorted[i]-center)
			}
		}
	}
}

func TestTopNFewerThanNAvailable(t *testing.T) {
	f := numFixture(t, 8, []float64{1, 2, 3})
	got, err := f.store.TopN(nil, 0, "hp", 10, RankMax, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("returned %d of 3 available", len(got))
	}
	if got[0].Value != 3 || got[2].Value != 1 {
		t.Errorf("order wrong: %+v", got)
	}
}

func TestTopNErrors(t *testing.T) {
	f := numFixture(t, 4, []float64{1})
	if _, err := f.store.TopN(nil, 0, "hp", 0, RankMax, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := f.store.TopN(nil, 0, "nosuch", 1, RankMax, 0); err == nil {
		t.Error("missing attribute accepted")
	}
}

func TestTopNObjectsAttached(t *testing.T) {
	f := numFixture(t, 8, []float64{10, 20, 30})
	got, err := f.store.TopN(nil, 0, "hp", 2, RankMax, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		if v, ok := m.Object.Get("hp"); !ok || v.Num != m.Value {
			t.Errorf("object not attached: %+v", m)
		}
	}
}

func TestTopNStringMatchesBruteForce(t *testing.T) {
	f := newWordFixture(t, 24, 250, StoreConfig{})
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		needle := f.words[rng.Intn(len(f.words))]
		for _, m := range methods() {
			got, err := f.store.TopNString(nil, simnet.NodeID(rng.Intn(24)), "word", needle, 5, 5,
				TopNOptions{Similar: SimilarOptions{Method: m}})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 5 {
				t.Fatalf("%v: top-5 returned %d", m, len(got))
			}
			// The distances must match the best 5 brute-force distances.
			var dists []int
			for _, w := range f.words {
				dists = append(dists, strdist.Levenshtein(needle, w))
			}
			sort.Ints(dists)
			for i, match := range got {
				if match.Distance != dists[i] {
					t.Fatalf("%v: rank %d distance %d, want %d", m, i, match.Distance, dists[i])
				}
			}
		}
	}
}

func TestSelectEq(t *testing.T) {
	f := newWordFixture(t, 16, 100, StoreConfig{})
	w := f.words[42]
	ts, err := f.store.SelectEq(nil, 0, "word", triples.String(w))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Val.Str != w {
		t.Errorf("SelectEq = %v", ts)
	}
	ts, err = f.store.SelectEq(nil, 0, "word", triples.String("zzzznope"))
	if err != nil || len(ts) != 0 {
		t.Errorf("SelectEq miss = %v, %v", ts, err)
	}
}

func TestSelectNumRange(t *testing.T) {
	values := []float64{10, 20, 30, 40, 50}
	f := numFixture(t, 8, values)
	ts, err := f.store.SelectNumRange(nil, 0, "hp", &Bound{Value: 20}, &Bound{Value: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Errorf("closed range returned %d, want 3", len(ts))
	}
	ts, err = f.store.SelectNumRange(nil, 0, "hp", &Bound{Value: 20, Open: true}, &Bound{Value: 40, Open: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Val.Num != 30 {
		t.Errorf("open range = %v", ts)
	}
	ts, err = f.store.SelectNumRange(nil, 0, "hp", nil, &Bound{Value: 25})
	if err != nil || len(ts) != 2 {
		t.Errorf("unbounded-lo range = %v, %v", ts, err)
	}
	if _, err := f.store.SelectNumRange(nil, 0, "hp", &Bound{Value: 50}, &Bound{Value: 10}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestSimilarNumeric(t *testing.T) {
	values := []float64{100, 105, 110, 200}
	f := numFixture(t, 8, values)
	ts, err := f.store.SimilarNumeric(nil, 0, "hp", 104, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 { // 100 and 105
		t.Errorf("SimilarNumeric = %v", ts)
	}
	if _, err := f.store.SimilarNumeric(nil, 0, "hp", 104, -1); err == nil {
		t.Error("negative distance accepted")
	}
	// dist < d is strict: 100 and 110 lie at distance exactly 5.
	ts, err = f.store.SimilarNumeric(nil, 0, "hp", 105, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Val.Num != 105 {
		t.Errorf("SimilarNumeric(105, 5) = %v, want only 105", ts)
	}
	// dist < 0 holds for nothing, not even the center.
	ts, err = f.store.SimilarNumeric(nil, 0, "hp", 105, 0)
	if err != nil || len(ts) != 0 {
		t.Errorf("SimilarNumeric(105, 0) = %v, %v; want nothing, no error", ts, err)
	}
}

func TestScanAttrAndKeyword(t *testing.T) {
	tuples := []triples.Tuple{
		triples.MustTuple("a1", "color", "red"),
		triples.MustTuple("a2", "color", "blue"),
		triples.MustTuple("a3", "mood", "blue"),
	}
	f := loadTuples(t, 8, tuples, StoreConfig{})
	ts, err := f.store.ScanAttr(nil, 0, "color")
	if err != nil || len(ts) != 2 {
		t.Errorf("ScanAttr = %v, %v", ts, err)
	}
	kw, err := f.store.KeywordSearch(nil, 0, triples.String("blue"))
	if err != nil {
		t.Fatal(err)
	}
	if len(kw) != 2 { // color=blue and mood=blue
		t.Errorf("KeywordSearch = %v", kw)
	}
}

func TestLookupObject(t *testing.T) {
	tuples := []triples.Tuple{
		triples.MustTuple("car1", "name", "BMW", "hp", 210.0),
	}
	f := loadTuples(t, 8, tuples, StoreConfig{})
	tu, err := f.store.LookupObject(nil, 0, "car1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tu.Fields) != 2 {
		t.Errorf("LookupObject = %+v", tu)
	}
	if _, err := f.store.LookupObject(nil, 0, "nope"); err == nil {
		t.Error("missing object accepted")
	}
}

func TestAttributesCatalog(t *testing.T) {
	tuples := []triples.Tuple{
		triples.MustTuple("x1", "name", "a", "price", 1.0),
		triples.MustTuple("x2", "name", "b"),
	}
	f := loadTuples(t, 8, tuples, StoreConfig{})
	attrs, err := f.store.Attributes(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0] != "name" || attrs[1] != "price" {
		t.Errorf("Attributes = %v", attrs)
	}
}

func TestStorageStats(t *testing.T) {
	f := newWordFixture(t, 8, 50, StoreConfig{})
	st := f.store.Stats()
	if st.Triples != 50 {
		t.Errorf("Triples = %d", st.Triples)
	}
	if st.ByIndex[triples.IndexOID] != 50 || st.ByIndex[triples.IndexAttrValue] != 50 {
		t.Errorf("base index counts = %v", st.ByIndex)
	}
	if st.ByIndex[triples.IndexGram] == 0 || st.ByIndex[triples.IndexSchemaGram] == 0 {
		t.Errorf("gram counts = %v", st.ByIndex)
	}
	if st.Postings <= 4*50 {
		t.Errorf("total postings %d suspiciously low", st.Postings)
	}
}

func TestInsertAndDeleteTripleRouted(t *testing.T) {
	f := newWordFixture(t, 16, 100, StoreConfig{})
	var tally metrics.Tally
	tr := triples.Triple{OID: "new1", Attr: "word", Val: triples.String("fresh")}
	if err := f.store.InsertTriple(&tally, 0, tr); err != nil {
		t.Fatal(err)
	}
	if tally.Messages == 0 {
		t.Error("routed insert cost no messages")
	}
	ms, err := f.store.Similar(nil, 0, "fresh", "word", 0, SimilarOptions{})
	if err != nil || len(ms) != 1 {
		t.Fatalf("Similar after insert = %v, %v", ms, err)
	}
	if err := f.store.DeleteTriple(nil, 0, tr); err != nil {
		t.Fatal(err)
	}
	ms, err = f.store.Similar(nil, 0, "fresh", "word", 0, SimilarOptions{})
	if err != nil || len(ms) != 0 {
		t.Fatalf("Similar after delete = %v, %v", ms, err)
	}
}

func TestStoreRejectsInvalidTriples(t *testing.T) {
	f := newWordFixture(t, 4, 10, StoreConfig{})
	bad := []triples.Triple{
		{OID: "", Attr: "a", Val: triples.Number(1)},
		{OID: "x", Attr: "a#b", Val: triples.Number(1)},
		{OID: "x", Attr: "a", Val: triples.String("bad\x01byte")},
	}
	for _, tr := range bad {
		if err := f.store.InsertTriple(nil, 0, tr); err == nil {
			t.Errorf("InsertTriple(%v) accepted", tr)
		}
	}
}

func TestMethodAndRankStrings(t *testing.T) {
	if MethodQGrams.String() != "qgrams" || MethodQSamples.String() != "qsamples" || MethodNaive.String() != "strings" {
		t.Error("method names wrong")
	}
	if RankMin.String() != "MIN" || RankMax.String() != "MAX" || RankNN.String() != "NN" {
		t.Error("rank names wrong")
	}
}
