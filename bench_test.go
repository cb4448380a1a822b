// Package repro holds the benchmark harness that regenerates every figure of
// the paper's evaluation (Figure 1 a-d) plus the validation and ablation
// experiments (E2-E4, A3-A5).
//
// The benchmarks run laptop-scale versions of the sweeps (the corpora and
// peer counts are scaled down from the paper's 106k words / 100k peers);
// cmd/figures runs arbitrary scales. Costs are reported as custom metrics:
// msgs/mix and KB/mix for figure benches (wall-clock time of a simulator is
// not the paper's measure).
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// Scaled-down experiment dimensions.
var (
	benchPeers   = []int{64, 256, 1024}
	benchMethods = []ops.Method{ops.MethodQSamples, ops.MethodQGrams, ops.MethodNaive}
)

const (
	benchWords  = 4000
	benchTitles = 2000
)

// engineCache shares loaded engines across benchmarks: building and loading
// a grid dominates runtime and is not what the figures measure.
var engineCache sync.Map // key string -> *core.Engine

func cachedEngine(b *testing.B, kind string, peers int) (*core.Engine, []string, string) {
	b.Helper()
	var corpus []string
	var attr string
	switch kind {
	case "bible":
		corpus = dataset.BibleWords(benchWords, 1)
		attr = "word"
	case "titles":
		corpus = dataset.PaintingTitles(benchTitles, 1)
		attr = "title"
	default:
		b.Fatalf("unknown corpus %q", kind)
	}
	key := fmt.Sprintf("%s/%d", kind, peers)
	if eng, ok := engineCache.Load(key); ok {
		return eng.(*core.Engine), corpus, attr
	}
	eng, err := core.Open(dataset.StringTuples(attr, "o", corpus), core.Config{Peers: peers})
	if err != nil {
		b.Fatal(err)
	}
	engineCache.Store(key, eng)
	return eng, corpus, attr
}

// figureBench sweeps peers x methods for one corpus, reporting the metric the
// corresponding figure panel plots.
func figureBench(b *testing.B, kind string) {
	w := bench.Workload{Repeats: 1, JoinLeftLimit: 10}
	for _, peers := range benchPeers {
		for _, m := range benchMethods {
			b.Run(fmt.Sprintf("peers=%d/%s", peers, m), func(b *testing.B) {
				eng, corpus, attr := cachedEngine(b, kind, peers)
				var msgs, bytes int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tally, err := bench.RunMixObserved(eng, attr, corpus, w, m, int64(i+1), nil)
					if err != nil {
						b.Fatal(err)
					}
					msgs += tally.Messages
					bytes += tally.Bytes
				}
				b.ReportMetric(float64(msgs)/float64(b.N), "msgs/mix")
				b.ReportMetric(float64(bytes)/float64(b.N)/1024, "KB/mix")
			})
		}
	}
}

// BenchmarkFig1aMessagesBible regenerates Figure 1(a): number of messages of
// the query mix vs network size on the bible-words corpus. The msgs/mix
// metric is the figure's y-axis.
func BenchmarkFig1aMessagesBible(b *testing.B) { figureBench(b, "bible") }

// BenchmarkFig1bVolumeBible regenerates Figure 1(b): data volume on the
// bible-words corpus; KB/mix is the y-axis.
func BenchmarkFig1bVolumeBible(b *testing.B) { figureBench(b, "bible") }

// BenchmarkFig1cMessagesTitles regenerates Figure 1(c): messages on the
// painting-titles corpus.
func BenchmarkFig1cMessagesTitles(b *testing.B) { figureBench(b, "titles") }

// BenchmarkFig1dVolumeTitles regenerates Figure 1(d): data volume on the
// painting-titles corpus.
func BenchmarkFig1dVolumeTitles(b *testing.B) { figureBench(b, "titles") }

// BenchmarkSearchHops validates experiment E2, the Section 2 claim that
// expected lookup cost stays ~0.5*log2(N) messages; hops/lookup vs
// 0.5log2(P) are reported per network size.
func BenchmarkSearchHops(b *testing.B) {
	for _, peers := range benchPeers {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			eng, corpus, attr := cachedEngine(b, "bible", peers)
			var hops int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var tally metrics.Tally
				needle := corpus[i%len(corpus)]
				from := simnet.NodeID(i % peers)
				if _, err := eng.Store().SelectEq(&tally, from, attr, triples.String(needle)); err != nil {
					b.Fatal(err)
				}
				if tally.Messages > 0 {
					hops += tally.Messages - 1
				}
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops/lookup")
		})
	}
}

// BenchmarkRowReconstruction measures experiment E3 (Section 8): the cost of
// reconstructing complete rows as tuple width grows. Messages stay ~constant
// (the oid index answers whole rows); transferred bytes grow linearly.
func BenchmarkRowReconstruction(b *testing.B) {
	for _, width := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("attrs=%d", width), func(b *testing.B) {
			var data []triples.Tuple
			for i := 0; i < 200; i++ {
				tu := triples.Tuple{OID: fmt.Sprintf("row%04d", i)}
				for a := 0; a < width; a++ {
					tu.Fields = append(tu.Fields, triples.Field{
						Name: fmt.Sprintf("attr%02d", a),
						Val:  triples.Number(float64(i*31 + a)),
					})
				}
				data = append(data, tu)
			}
			eng, err := core.Open(data, core.Config{Peers: 256})
			if err != nil {
				b.Fatal(err)
			}
			var msgs, bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var tally metrics.Tally
				oid := fmt.Sprintf("row%04d", i%200)
				if _, err := eng.Store().LookupObject(&tally, eng.Grid().RandomPeer(), oid); err != nil {
					b.Fatal(err)
				}
				msgs += tally.Messages
				bytes += tally.Bytes
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/row")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/row")
		})
	}
}

// BenchmarkStorageOverhead measures experiment E4 (Section 3/8): the posting
// and message overhead of publishing a tuple vertically — three base postings
// per triple plus q-gram postings — compared with one posting for a
// horizontal row.
func BenchmarkStorageOverhead(b *testing.B) {
	corpus := dataset.BibleWords(benchWords, 1)
	eng, _, attr := cachedEngine(b, "bible", 256)
	st := eng.Store().Stats()
	perTriple := float64(st.Postings) / float64(st.Triples)
	b.Run("insert", func(b *testing.B) {
		var msgs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var tally metrics.Tally
			tr := triples.Triple{
				OID:  fmt.Sprintf("new%06d", i),
				Attr: attr,
				Val:  triples.String(corpus[i%len(corpus)] + "x"),
			}
			if err := eng.Store().InsertTriple(&tally, eng.Grid().RandomPeer(), tr); err != nil {
				b.Fatal(err)
			}
			msgs += tally.Messages
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/triple")
		b.ReportMetric(perTriple, "postings/triple")
	})
}

// ablationSimilar compares Similar variants under one option tweak.
func ablationSimilar(b *testing.B, name string, base, variant ops.SimilarOptions) {
	eng, corpus, attr := cachedEngine(b, "bible", 256)
	for _, cfg := range []struct {
		label string
		opts  ops.SimilarOptions
	}{{"on", base}, {"off", variant}} {
		b.Run(name+"="+cfg.label, func(b *testing.B) {
			var msgs, bytes, found int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var tally metrics.Tally
				needle := corpus[(i*37)%len(corpus)]
				ms, err := eng.Store().Similar(&tally, simnet.NodeID(i%256), needle, attr, 2, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				msgs += tally.Messages
				bytes += tally.Bytes
				found += int64(len(ms))
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/query")
			b.ReportMetric(float64(found)/float64(b.N), "matches/query")
		})
	}
}

// BenchmarkAblationShortIndex quantifies the short-string side index this
// reproduction adds to close the completeness gap (A4): the "off" variant is
// the paper's verbatim Algorithm 2.
func BenchmarkAblationShortIndex(b *testing.B) {
	ablationSimilar(b, "shortindex",
		ops.SimilarOptions{Method: ops.MethodQGrams},
		ops.SimilarOptions{Method: ops.MethodQGrams, NoShortFallback: true})
}

// BenchmarkAblationQ sweeps the gram size q (A3): smaller grams mean fewer
// distinct keys (hotter partitions, more candidates); larger grams mean more
// lookups but sharper filtering.
func BenchmarkAblationQ(b *testing.B) {
	corpus := dataset.BibleWords(1500, 1)
	tuples := dataset.StringTuples("word", "o", corpus)
	for _, q := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			eng, err := core.Open(tuples, core.Config{
				Peers: 256,
				Store: ops.StoreConfig{Q: q},
			})
			if err != nil {
				b.Fatal(err)
			}
			var msgs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var tally metrics.Tally
				needle := corpus[(i*13)%len(corpus)]
				if _, err := eng.Store().Similar(&tally, simnet.NodeID(i%256), needle, "word", 2,
					ops.SimilarOptions{Method: ops.MethodQGrams}); err != nil {
					b.Fatal(err)
				}
				msgs += tally.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
		})
	}
}

// BenchmarkAblationJoinMemo quantifies memoizing identical left values in
// similarity joins (A5), the optimization Algorithm 3 anticipates.
func BenchmarkAblationJoinMemo(b *testing.B) {
	// A corpus with heavy duplication so memoization has something to share.
	base := dataset.BibleWords(300, 2)
	var corpus []string
	for i := 0; i < 1200; i++ {
		corpus = append(corpus, base[i%len(base)])
	}
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus), core.Config{Peers: 128})
	if err != nil {
		b.Fatal(err)
	}
	for _, memo := range []bool{false, true} {
		b.Run(fmt.Sprintf("memo=%v", memo), func(b *testing.B) {
			var msgs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var tally metrics.Tally
				if _, err := eng.Store().SimJoin(&tally, simnet.NodeID(i%128), "word", "word", 1,
					ops.JoinOptions{LeftLimit: 30, MemoizeValues: memo}); err != nil {
					b.Fatal(err)
				}
				msgs += tally.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/join")
		})
	}
}

// BenchmarkTopNNumeric measures the numeric top-N operator of Algorithm 4
// across ranking functions.
func BenchmarkTopNNumeric(b *testing.B) {
	var data []triples.Tuple
	for i := 0; i < 5000; i++ {
		data = append(data, triples.MustTuple(fmt.Sprintf("n%05d", i),
			"hp", float64((i*7919)%100000)))
	}
	eng, err := core.Open(data, core.Config{Peers: 256})
	if err != nil {
		b.Fatal(err)
	}
	for _, rank := range []ops.Rank{ops.RankMax, ops.RankMin, ops.RankNN} {
		b.Run(rank.String(), func(b *testing.B) {
			var msgs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var tally metrics.Tally
				if _, err := eng.Store().TopN(&tally, simnet.NodeID(i%256), "hp", 10, rank,
					float64((i*331)%100000), ops.TopNOptions{}); err != nil {
					b.Fatal(err)
				}
				msgs += tally.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
		})
	}
}

// BenchmarkAttributeScaling addresses the paper's stated open question ("an
// evaluation of how the approach scales with the number of attributes is
// still on stage"): similarity-query cost as tuples carry more attributes.
// Extra attributes add schema-gram postings and fatter objects, so
// reconstruction bytes grow while gram-lookup messages stay stable.
func BenchmarkAttributeScaling(b *testing.B) {
	words := dataset.BibleWords(1500, 3)
	for _, width := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("attrs=%d", width), func(b *testing.B) {
			var data []triples.Tuple
			for i, w := range words {
				tu := triples.Tuple{OID: fmt.Sprintf("o%05d", i)}
				tu.Fields = append(tu.Fields, triples.Field{Name: "word", Val: triples.String(w)})
				for a := 1; a < width; a++ {
					tu.Fields = append(tu.Fields, triples.Field{
						Name: fmt.Sprintf("extra%02d", a),
						Val:  triples.Number(float64(i*7 + a)),
					})
				}
				data = append(data, tu)
			}
			eng, err := core.Open(data, core.Config{Peers: 256})
			if err != nil {
				b.Fatal(err)
			}
			var msgs, bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var tally metrics.Tally
				needle := words[(i*41)%len(words)]
				if _, err := eng.Store().Similar(&tally, simnet.NodeID(i%256), needle, "word", 2,
					ops.SimilarOptions{Method: ops.MethodQGrams}); err != nil {
					b.Fatal(err)
				}
				msgs += tally.Messages
				bytes += tally.Bytes
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/query")
		})
	}
}

// BenchmarkVQLEndToEnd measures whole-query latency through parser, planner
// and executor for the paper's first example query.
func BenchmarkVQLEndToEnd(b *testing.B) {
	dealers := dataset.Dealers(40, 0.2, 7)
	cars := dataset.Cars(400, 40, 8)
	eng, err := core.Open(append(cars, dealers...), core.Config{Peers: 128})
	if err != nil {
		b.Fatal(err)
	}
	const q = `SELECT ?n,?h,?p WHERE { (?o,name,?n) (?o,hp,?h) (?o,price,?p)
		FILTER (?p < 50000) } ORDER BY ?h DESC LIMIT 5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
