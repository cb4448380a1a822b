package repro_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// TestCacheInvalidationOracle is the acceptance check of the initiator-side
// caches: a cached engine must answer exactly like an uncached twin at every
// point of a schedule that interleaves repeated similarity queries with the
// two invalidation sources — membership churn (epoch advance) and routed
// Insert/Delete (write-generation bump) — on every execution mode. The twin
// engines share seed and call sequence, so their overlays evolve
// identically and the comparison is equality of full match lists, not just
// counts.
func TestCacheInvalidationOracle(t *testing.T) {
	const peers = 32
	corpus := dataset.BibleWords(220, 17)
	tuples := dataset.StringTuples("word", "o", corpus)
	modes := []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			open := func(cache bool) *core.Engine {
				cfg := core.Config{Peers: peers, Runtime: mode, Cache: cache}
				cfg.Grid.Replication = 2
				cfg.Grid.RefsPerLevel = 3
				cfg.Grid.Seed = 9
				eng, err := core.Open(tuples, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			cached, uncached := open(true), open(false)

			rng := rand.New(rand.NewSource(31))
			// A small hot set guarantees repeats (and therefore cache hits)
			// between invalidations.
			hot := make([]string, 6)
			for i := range hot {
				hot[i] = corpus[rng.Intn(len(corpus))]
			}
			compare := func(step string) {
				t.Helper()
				needle := hot[rng.Intn(len(hot))]
				from := simnet.NodeID(rng.Intn(peers))
				d := rng.Intn(2)
				want, err := uncached.Store().Similar(nil, from, needle, "word", d, ops.SimilarOptions{})
				if err != nil {
					t.Fatalf("%s: uncached similar(%q,%d): %v", step, needle, d, err)
				}
				got, err := cached.Store().Similar(nil, from, needle, "word", d, ops.SimilarOptions{})
				if err != nil {
					t.Fatalf("%s: cached similar(%q,%d): %v", step, needle, d, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: cached similar(%q,%d) diverges\n got %+v\nwant %+v",
						step, needle, d, got, want)
				}
			}

			// Warm-up: repeated questions, no invalidations.
			for i := 0; i < 12; i++ {
				compare("warm-up")
			}

			// Interleaved writes: every insert/delete must be visible to the
			// very next query on both engines.
			for i := 0; i < 6; i++ {
				tu := triples.MustTuple(fmt.Sprintf("new%02d", i), "word", hot[i%len(hot)])
				from := simnet.NodeID(rng.Intn(peers))
				for _, eng := range []*core.Engine{cached, uncached} {
					if err := eng.Store().InsertTuple(nil, from, tu); err != nil {
						t.Fatalf("insert: %v", err)
					}
				}
				compare("after insert")
				if i%2 == 1 {
					tr := triples.Triple{OID: tu.OID, Attr: "word", Val: triples.String(hot[i%len(hot)])}
					for _, eng := range []*core.Engine{cached, uncached} {
						if err := eng.Store().DeleteTriple(nil, from, tr); err != nil {
							t.Fatalf("delete: %v", err)
						}
					}
					compare("after delete")
				}
			}

			// Membership churn: joins and graceful leaves advance the epoch;
			// identical seeds keep the twins' overlays in lockstep.
			var joined []simnet.NodeID
			for i := 0; i < 8; i++ {
				if len(joined) > 0 && rng.Intn(2) == 0 {
					id := joined[len(joined)-1]
					joined = joined[:len(joined)-1]
					for _, eng := range []*core.Engine{cached, uncached} {
						if err := eng.Leave(id); err != nil {
							t.Fatalf("leave(%d): %v", id, err)
						}
					}
					compare("after leave")
				} else {
					var ids [2]simnet.NodeID
					for j, eng := range []*core.Engine{cached, uncached} {
						id, _, err := eng.Join()
						if err != nil {
							t.Fatalf("join: %v", err)
						}
						ids[j] = id
					}
					if ids[0] != ids[1] {
						t.Fatalf("twin engines diverged: join ids %d vs %d", ids[0], ids[1])
					}
					joined = append(joined, ids[0])
					compare("after join")
				}
				cached.RefreshRefs()
				uncached.RefreshRefs()
			}

			st := cached.Store().CacheStats()
			if st.Results.Hits == 0 && st.Postings.Hits == 0 {
				t.Error("schedule produced no cache hits; the oracle exercised nothing")
			}
			if st.Results.Invalidations == 0 {
				t.Error("schedule produced no invalidations despite churn and writes")
			}
			if us := uncached.Store().CacheStats(); us != (ops.CacheStats{}) {
				t.Errorf("uncached engine accrued cache counters: %+v", us)
			}
		})
	}
}
