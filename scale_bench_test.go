package repro

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simnet"
)

// scaleTuples is the corpus size for the load-at-scale benchmark: ~1M postings
// by default (smoke-friendly), overridable via LOAD_SCALE_TUPLES for the full
// BENCH_10 run (540000 tuples is ~10M postings on the bible letter model).
func scaleTuples() int {
	if s := os.Getenv("LOAD_SCALE_TUPLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 54000
}

// BenchmarkLoadAtScale is the BENCH_10 load headline: end-to-end core.Open at
// ~1M postings (10M with LOAD_SCALE_TUPLES=540000) comparing a one-window
// load against a 64 MiB entry budget, each at serial and GOMAXPROCS load
// workers. peak-MiB is the planner's deterministic modeled peak of resident
// extracted entries (entryFootprint x entries held at once): one window holds
// the whole data set, a budgeted load one window of it. windows counts load
// windows (1 = the whole data set at once). Process-level RSS
// corroboration comes from fresh-process gridsim runs (the benchmark process
// cannot give each variant a fresh heap).
func BenchmarkLoadAtScale(b *testing.B) {
	corpus := dataset.BibleWords(scaleTuples(), 1)
	tuples := dataset.StringTuples("word", "o", corpus)
	const peers = 1024
	variants := []struct {
		name    string
		budget  int64
		workers int
	}{
		{"materializing/workers=1", 0, 1},
		// "ncpu" = GOMAXPROCS, symbolic so names are stable across hosts; on
		// a single-core host it degenerates to the serial pipeline and any
		// gain over workers=1 is purely algorithmic.
		{"materializing/workers=ncpu", 0, 0},
		{"streaming-64MiB/workers=1", 64 << 20, 1},
		{"streaming-64MiB/workers=ncpu", 64 << 20, 0},
	}
	for _, v := range variants {
		b.Run(fmt.Sprintf("bible/%d/%s", peers, v.name), func(b *testing.B) {
			b.ReportAllocs()
			var info core.LoadInfo
			var postings int64
			for i := 0; i < b.N; i++ {
				eng, err := core.Open(tuples, core.Config{
					Peers:       peers,
					LoadWorkers: v.workers,
					LoadBudget:  v.budget,
				})
				if err != nil {
					b.Fatal(err)
				}
				info = eng.LoadInfo()
				postings = eng.Stats().Storage.Postings
			}
			b.ReportMetric(float64(info.PeakEntryBytes)/(1<<20), "peak-MiB")
			b.ReportMetric(float64(info.Windows), "windows")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(len(tuples))*float64(b.N)/secs, "tuples/s")
				b.ReportMetric(float64(postings)*float64(b.N)/secs, "postings/s")
			}
		})
	}
}

// BenchmarkQueryAtScale is the BENCH_10 query headline: similarity-query
// throughput on a grid 16x the BENCH_8 peer count (4096 vs 256) with 5x the
// tuples, on both executors. Leaf lookups ride the chunked epoch
// tables, so per-query cost must stay within the same order as the small grid.
func BenchmarkQueryAtScale(b *testing.B) {
	const peers = 4096
	corpus := dataset.BibleWords(20000, 1)
	tuples := dataset.StringTuples("word", "o", corpus)
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		b.Run(fmt.Sprintf("peers=%d/%s", peers, mode), func(b *testing.B) {
			eng, err := core.Open(tuples, core.Config{
				Peers:   peers,
				Runtime: mode,
				Latency: asyncnet.DefaultLatency(1),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				needle := corpus[i%len(corpus)]
				var tally metrics.Tally
				if _, err := eng.Store().Similar(&tally, simnet.NodeID(i%peers), needle, "word", 1,
					ops.SimilarOptions{NoShortFallback: true}); err != nil {
					b.Fatal(err)
				}
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "queries/s")
			}
		})
	}
}
