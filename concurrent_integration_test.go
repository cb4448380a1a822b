package repro

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/strdist"
)

// runClients runs n client bodies against eng. A direct engine gets raw
// goroutines, the shape a multi-client benchmark drives it with; an actor
// engine gets Engine.Concurrent, whose bodies interleave on the runtime's
// one virtual timeline.
func runClients(eng *core.Engine, n int, body func(i int)) {
	if eng.Runtime() != nil {
		eng.Concurrent(n, body)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(i)
		}()
	}
	wg.Wait()
}

// TestDirectConcurrentQueries drives many concurrent similarity queries (plus
// range selections and joins) through one direct engine from raw goroutines
// and different initiators — the race-detector integration test for
// cross-operation concurrency on the serial simulator. Results are verified
// against a brute-force oracle, and every query's latency tally is its own,
// so each worker's summed latency must be at least its slowest query.
func TestDirectConcurrentQueries(t *testing.T) {
	corpus := dataset.BibleWords(400, 23)
	eng, err := core.Open(dataset.StringTuples("word", "o", corpus),
		core.Config{Peers: 128, Latency: asyncnet.DefaultLatency(3)})
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(needle string, d int) int {
		n := 0
		for _, w := range corpus {
			if strdist.WithinDistance(needle, w, d) {
				n++
			}
		}
		return n
	}
	const workers = 8
	errs := make(chan error, workers*8)
	latencies := make([]struct{ sum, max int64 }, workers)
	runClients(eng, workers, func(w int) {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		for q := 0; q < 5; q++ {
			needle := corpus[rng.Intn(len(corpus))]
			from := simnet.NodeID(rng.Intn(128))
			d := 1 + rng.Intn(2)
			var tally metrics.Tally
			ms, err := eng.Store().Similar(&tally, from, needle, "word", d, ops.SimilarOptions{})
			if err != nil {
				errs <- err
				return
			}
			if len(ms) != oracle(needle, d) {
				errs <- fmt.Errorf("worker %d: %q d=%d: got %d matches, oracle %d",
					w, needle, d, len(ms), oracle(needle, d))
				return
			}
			if tally.Messages == 0 || tally.Hops == 0 || tally.Latency == 0 {
				errs <- fmt.Errorf("worker %d: unaccounted query: %v", w, tally)
				return
			}
			latencies[w].sum += tally.Latency
			if tally.Latency > latencies[w].max {
				latencies[w].max = tally.Latency
			}
			switch q % 3 {
			case 0:
				if _, err := eng.Store().SelectStrRange(&tally, from, "word",
					&ops.StrBound{Value: "d"}, &ops.StrBound{Value: "g"}); err != nil {
					errs <- err
					return
				}
			case 1:
				if _, err := eng.Store().SimJoin(&tally, from, "word", "word", 1,
					ops.JoinOptions{LeftLimit: 3}); err != nil {
					errs <- err
					return
				}
			}
		}
	})
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for w, l := range latencies {
		if l.sum < l.max || l.max == 0 {
			t.Errorf("worker %d: latency tally sum=%d max=%d, want sum >= max > 0", w, l.sum, l.max)
		}
	}
}

// TestQueriesTolerateCrashChurn runs concurrent clients against a fabric
// whose failure set keeps changing: each client crashes a different peer
// before every query and revives it afterwards, so queries keep routing into
// freshly downed peers — errors are acceptable under partial
// unreachability, data races and wrong results are not. Every successful
// query's latency tally is asserted non-zero.
func TestQueriesTolerateCrashChurn(t *testing.T) {
	corpus := dataset.BibleWords(300, 29)
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.Config{Peers: 96, Runtime: mode, Latency: asyncnet.DefaultLatency(4)}
			cfg.Grid.Replication = 3
			cfg.Grid.RefsPerLevel = 4
			cfg.Grid.Seed = 1
			eng, err := core.Open(dataset.StringTuples("word", "o", corpus), cfg)
			if err != nil {
				t.Fatal(err)
			}
			okCount := 0
			var mu sync.Mutex
			runClients(eng, 6, func(w int) {
				rng := rand.New(rand.NewSource(int64(w)))
				for q := 0; q < 6; q++ {
					// A fresh peer is down for exactly this query.
					down := simnet.NodeID(rng.Intn(96))
					eng.Net().SetDown(down, true)
					needle := corpus[rng.Intn(len(corpus))]
					var tally metrics.Tally
					ms, err := eng.Store().Similar(&tally, simnet.NodeID(rng.Intn(96)), needle, "word", 1,
						ops.SimilarOptions{})
					eng.Net().SetDown(down, false)
					if err != nil {
						continue // partial unreachability is acceptable under churn
					}
					if tally.Latency == 0 || tally.Messages == 0 {
						t.Errorf("worker %d: successful churned query left no tally: %v", w, tally)
					}
					for _, m := range ms {
						if m.Matched == needle {
							mu.Lock()
							okCount++
							mu.Unlock()
							break
						}
					}
				}
			})
			if okCount < 18 {
				t.Errorf("only %d/36 churned queries found their needle", okCount)
			}
		})
	}
}

// TestMembershipChurnDuringSimilarityQueries runs the paper's operators —
// similarity search, string top-N and batched multicast underneath — while a
// sibling client performs real structural churn through the engine: Join,
// graceful Leave and RefreshRefs, each published as a grid epoch. On the
// direct engine the clients are raw goroutines; on the actor engine they
// interleave on one shared virtual timeline, so churn lands between and
// during query fan-outs and Join/Leave exercise the write-fencing drain from
// inside an open issue window. Unlike crash churn, graceful membership churn
// never destroys data, and every query reads one consistent epoch, so
// results must match the brute-force oracle exactly; any error fails the
// test.
func TestMembershipChurnDuringSimilarityQueries(t *testing.T) {
	const peers = 48
	corpus := dataset.BibleWords(250, 41)
	oracle := func(needle string, d int) int {
		n := 0
		for _, w := range corpus {
			if strdist.WithinDistance(needle, w, d) {
				n++
			}
		}
		return n
	}
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.Config{Peers: peers, Runtime: mode, Latency: asyncnet.DefaultLatency(6)}
			cfg.Grid.Replication = 2
			cfg.Grid.RefsPerLevel = 3
			cfg.Grid.Seed = 1
			eng, err := core.Open(dataset.StringTuples("word", "o", corpus), cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Body 0 is the churner, bodies 1-4 are query workers.
			var slowest [4]int64
			runClients(eng, 5, func(body int) {
				if body == 0 {
					rng := rand.New(rand.NewSource(55))
					var joined []simnet.NodeID
					for op := 0; op < 60; op++ {
						if len(joined) > 0 && rng.Intn(2) == 0 {
							idx := rng.Intn(len(joined))
							// Sole owners must stay; any other Leave error is a bug.
							switch err := eng.Leave(joined[idx]); {
							case err == nil:
								joined = append(joined[:idx], joined[idx+1:]...)
							case !errors.Is(err, pgrid.ErrSoleOwner):
								t.Errorf("Leave: %v", err)
								return
							}
						} else {
							id, _, err := eng.Join()
							if err != nil {
								t.Errorf("Join: %v", err)
								return
							}
							joined = append(joined, id)
						}
						if op%8 == 0 {
							eng.RefreshRefs()
						}
					}
					return
				}
				w := body - 1
				rng := rand.New(rand.NewSource(int64(500 + w)))
				for q := 0; q < 12; q++ {
					needle := corpus[rng.Intn(len(corpus))]
					from := simnet.NodeID(rng.Intn(peers)) // original peers never leave
					d := 1 + rng.Intn(2)
					var tally metrics.Tally
					ms, err := eng.Store().Similar(&tally, from, needle, "word", d, ops.SimilarOptions{})
					if err != nil {
						t.Errorf("worker %d: Similar(%q,%d): %v", w, needle, d, err)
						return
					}
					if len(ms) != oracle(needle, d) {
						t.Errorf("worker %d: Similar(%q,%d) = %d matches, oracle %d",
							w, needle, d, len(ms), oracle(needle, d))
						return
					}
					if tally.Latency == 0 || tally.Messages == 0 {
						t.Errorf("worker %d: Similar(%q,%d) left no tally: %v", w, needle, d, tally)
						return
					}
					if tally.Latency > slowest[w] {
						slowest[w] = tally.Latency
					}
					top, err := eng.Store().TopNString(nil, from, "word", needle, 3, 2, ops.TopNOptions{})
					if err != nil {
						t.Errorf("worker %d: TopNString(%q): %v", w, needle, err)
						return
					}
					if len(top) == 0 || top[0].Matched != needle {
						t.Errorf("worker %d: TopNString(%q) best = %+v, want the needle itself", w, needle, top)
						return
					}
				}
			})
			for w, l := range slowest {
				if l == 0 {
					t.Errorf("worker %d recorded no latency tally", w)
				}
			}

			if eng.Net().DownCount() != 0 {
				t.Errorf("membership churn marked %d peers down (DownCount counts crashes only)", eng.Net().DownCount())
			}
			if eng.Grid().DepartedCount() == 0 {
				t.Error("no departures recorded despite graceful leaves")
			}
			if eng.Grid().PeerCount() <= peers {
				t.Errorf("peer id space %d did not grow despite joins", eng.Grid().PeerCount())
			}
		})
	}
}
