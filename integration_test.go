package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/strdist"
	"repro/internal/triples"
)

// TestEndToEndMethodsAgreeOnGeneratedCorpus checks the three evaluation
// methods return byte-identical results for the paper's workload queries on
// a generated bible-words corpus, with the exact-completeness extension on.
func TestEndToEndMethodsAgreeOnGeneratedCorpus(t *testing.T) {
	corpus := dataset.BibleWords(600, 21)
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus), core.Config{Peers: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 6; trial++ {
		needle := corpus[rng.Intn(len(corpus))]
		from := simnet.NodeID(rng.Intn(128))
		var rendered []string
		for _, m := range []ops.Method{ops.MethodQGrams, ops.MethodQSamples, ops.MethodNaive} {
			ms, err := eng.Store().Similar(nil, from, needle, "word", 2, ops.SimilarOptions{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, match := range ms {
				lines = append(lines, fmt.Sprintf("%s/%s/%d", match.OID, match.Matched, match.Distance))
			}
			sort.Strings(lines)
			rendered = append(rendered, fmt.Sprint(lines))
		}
		if rendered[0] != rendered[1] || rendered[0] != rendered[2] {
			t.Fatalf("methods disagree for %q:\n%s\n%s\n%s", needle, rendered[0], rendered[1], rendered[2])
		}
	}
}

// TestEndToEndExactCompleteness compares the engine's similarity results
// against a brute-force oracle on the full corpus, including needles below
// the gram guarantee threshold.
func TestEndToEndExactCompleteness(t *testing.T) {
	corpus := dataset.PaintingTitles(250, 31) // includes very short titles
	eng, err := core.Open(dataset.StringTuples("title", "p", corpus), core.Config{Peers: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		needle := corpus[rng.Intn(len(corpus))]
		if len(needle) > 25 {
			needle = needle[:25] // keep verification affordable
		}
		d := 1 + rng.Intn(3)
		want := 0
		for _, s := range corpus {
			if strdist.WithinDistance(needle, s, d) {
				want++
			}
		}
		ms, err := eng.Store().Similar(nil, simnet.NodeID(rng.Intn(64)), needle, "title", d,
			ops.SimilarOptions{Method: ops.MethodQGrams})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != want {
			t.Fatalf("needle %q d=%d: engine found %d, oracle %d", needle, d, len(ms), want)
		}
	}
}

// TestEndToEndFailureTolerance runs the workload with replication while a
// slice of the network is down.
func TestEndToEndFailureTolerance(t *testing.T) {
	corpus := dataset.BibleWords(400, 41)
	cfg := core.Config{Peers: 96}
	cfg.Grid = pgrid.DefaultConfig()
	cfg.Grid.Replication = 3
	cfg.Grid.RefsPerLevel = 4
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Down 10% of peers.
	rng := rand.New(rand.NewSource(6))
	downed := 0
	for downed < 9 {
		id := simnet.NodeID(rng.Intn(96))
		if !eng.Net().IsDown(id) {
			eng.Net().SetDown(id, true)
			downed++
		}
	}
	okCount := 0
	for trial := 0; trial < 30; trial++ {
		needle := corpus[rng.Intn(len(corpus))]
		var from simnet.NodeID
		for {
			from = simnet.NodeID(rng.Intn(96))
			if !eng.Net().IsDown(from) {
				break
			}
		}
		ms, err := eng.Store().Similar(nil, from, needle, "word", 1, ops.SimilarOptions{})
		if err != nil {
			continue // partial unreachability is acceptable
		}
		found := false
		for _, m := range ms {
			if m.Matched == needle {
				found = true
			}
		}
		if found {
			okCount++
		}
	}
	if okCount < 24 {
		t.Errorf("only %d/30 queries found their needle with 10%% of peers down", okCount)
	}
}

// TestWorkloadMatchesPaperMix verifies the default harness workload is the
// paper's Section 6 mix.
func TestWorkloadMatchesPaperMix(t *testing.T) {
	w := bench.QueryMix()
	if fmt.Sprint(w.TopNs) != "[5 10 15]" {
		t.Errorf("TopNs = %v", w.TopNs)
	}
	if fmt.Sprint(w.JoinDists) != "[1 2 3]" {
		t.Errorf("JoinDists = %v", w.JoinDists)
	}
	if w.MaxDist != 5 || w.Repeats != 40 {
		t.Errorf("MaxDist/Repeats = %d/%d", w.MaxDist, w.Repeats)
	}
}

// TestRunMixAccountsCost smoke-tests the benchmark entry point.
func TestRunMixAccountsCost(t *testing.T) {
	corpus := dataset.BibleWords(300, 51)
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus), core.Config{Peers: 32})
	if err != nil {
		t.Fatal(err)
	}
	w := bench.Workload{Repeats: 1, JoinLeftLimit: 3, TopNs: []int{2}, JoinDists: []int{1}}
	tally, err := bench.RunMixObserved(eng, "word", corpus, w, ops.MethodQSamples, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tally.Messages == 0 || tally.Bytes == 0 {
		t.Errorf("mix cost = %+v", tally)
	}
}

// TestPaperHeadlineShape is the repository's single most important
// integration assertion: across a 16x network growth, the naive method's
// message cost grows several times faster than the q-gram methods', and
// q-samples stay the cheapest gram variant — Figure 1's qualitative story.
func TestPaperHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep is slow")
	}
	corpus := dataset.BibleWords(1500, 61)
	e := &bench.Experiment{
		Corpus: corpus,
		Attr:   "word",
		Peers:  []int{128, 2048},
		Workload: bench.Workload{
			Repeats:       3,
			JoinLeftLimit: 6,
			TopNs:         []int{5},
			JoinDists:     []int{1, 2},
			MaxDist:       4,
		},
	}
	points, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	get := func(peers int, m ops.Method) float64 {
		for _, p := range points {
			if p.Peers == peers && p.Method == m {
				return p.Messages
			}
		}
		t.Fatalf("missing point")
		return 0
	}
	naiveGrowth := get(2048, ops.MethodNaive) / get(128, ops.MethodNaive)
	gramGrowth := get(2048, ops.MethodQGrams) / get(128, ops.MethodQGrams)
	sampleGrowth := get(2048, ops.MethodQSamples) / get(128, ops.MethodQSamples)
	t.Logf("growth over 16x peers: naive %.1fx, qgrams %.1fx, qsamples %.1fx",
		naiveGrowth, gramGrowth, sampleGrowth)
	if naiveGrowth < 1.5*gramGrowth {
		t.Errorf("naive growth %.2fx not clearly above qgram growth %.2fx", naiveGrowth, gramGrowth)
	}
	for _, peers := range []int{128, 2048} {
		if get(peers, ops.MethodQSamples) > get(peers, ops.MethodQGrams) {
			t.Errorf("qsamples above qgrams at %d peers", peers)
		}
	}
}

// TestEndToEndChurn grows a small network peer by peer while querying: the
// self-organizing construction must keep every result reachable and correct.
func TestEndToEndChurn(t *testing.T) {
	corpus := dataset.BibleWords(500, 91)
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus), core.Config{Peers: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	oracle := func(needle string, d int) int {
		n := 0
		for _, w := range corpus {
			if strdist.WithinDistance(needle, w, d) {
				n++
			}
		}
		return n
	}
	for round := 0; round < 25; round++ {
		if _, _, err := eng.Join(); err != nil {
			t.Fatalf("join %d: %v", round, err)
		}
		needle := corpus[rng.Intn(len(corpus))]
		ms, err := eng.Similar(needle, "word", 1)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(ms) != oracle(needle, 1) {
			t.Fatalf("round %d: %d matches, oracle %d", round, len(ms), oracle(needle, 1))
		}
	}
	if eng.Grid().PeerCount() != 31 {
		t.Errorf("peer count = %d", eng.Grid().PeerCount())
	}
	if eng.Grid().LeafCount() < 12 {
		t.Errorf("joins created only %d partitions", eng.Grid().LeafCount())
	}
}

// TestGlobalAndPerQueryAccountingAgree cross-checks the two accounting paths.
func TestGlobalAndPerQueryAccountingAgree(t *testing.T) {
	corpus := dataset.BibleWords(200, 71)
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus), core.Config{Peers: 32})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Net().Collector().Total()
	var tally metrics.Tally
	if _, err := eng.Store().Similar(&tally, 5, corpus[0], "word", 2, ops.SimilarOptions{}); err != nil {
		t.Fatal(err)
	}
	// The global collector counts messages and bytes; hops and latency are
	// per-query path measures, so only the summed counters must agree.
	diff := eng.Net().Collector().Total().Sub(before)
	if diff.Messages != tally.Messages || diff.Bytes != tally.Bytes {
		t.Errorf("global diff %+v != per-query tally %+v", diff, tally)
	}
}

// TestTripleOverheadWithinExpectation pins the storage amplification: the
// vertical scheme should cost on the order of 15-25 postings per bible-word
// triple (3 base + ~len+2 value grams + ~6 schema grams + short + catalog).
func TestTripleOverheadWithinExpectation(t *testing.T) {
	corpus := dataset.BibleWords(500, 81)
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus), core.Config{Peers: 16})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Store().Stats()
	ratio := float64(st.Postings) / float64(st.Triples)
	if ratio < 10 || ratio > 30 {
		t.Errorf("postings per triple = %.1f, expected 10-30", ratio)
	}
	if st.ByIndex[triples.IndexOID] != int64(len(corpus)) {
		t.Errorf("oid postings = %d", st.ByIndex[triples.IndexOID])
	}
}
