package repro

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// bulkLoadCorpus is the shared dataset of the load-equivalence oracle; small
// enough for the actor engine under -race, rich enough for every index
// family (grams, short values, numerics, catalog).
func bulkLoadCorpus() []triples.Tuple {
	words := dataset.BibleWords(800, 13)
	var tuples []triples.Tuple
	for i, w := range words {
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("o%05d", i),
			"word", w, "len", float64(len(w))))
	}
	return tuples
}

// routedEngine is the load oracle's reference: a direct-executor grid built
// from the plan's balancing sample, with every tuple written through the
// routed InsertTuple, the path runtime writes take.
func routedEngine(t testing.TB, tuples []triples.Tuple, peers int) *ops.Store {
	t.Helper()
	plan, err := ops.PlanLoadStream(tuples, ops.StoreConfig{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(peers)
	grid, err := pgrid.Build(net, peers, plan.SampleKeys(), pgrid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := ops.NewStore(grid, ops.StoreConfig{})
	for i, tu := range tuples {
		if err := store.InsertTuple(nil, simnet.NodeID(i%peers), tu); err != nil {
			t.Fatal(err)
		}
	}
	net.Collector().Reset()
	return store
}

// bulkLoadProbe renders a deterministic query battery against a store:
// similarity selections and nearest-neighbour top-N run from fixed
// initiators, so any divergence in loaded state shows up as a result
// difference. An initiator that churn removed is replaced by the next live
// id: answers do not depend on the initiator.
func bulkLoadProbe(t testing.TB, store *ops.Store, peers int) []string {
	t.Helper()
	g := store.Grid()
	needles := []string{"shall", "hous", "wil", "a", "kingdom"}
	var out []string
	for i, needle := range needles {
		from := simnet.NodeID((i * 17) % peers)
		for _, err := g.Peer(from); err != nil; _, err = g.Peer(from) {
			from = (from + 1) % simnet.NodeID(g.PeerCount())
		}
		ms, err := store.Similar(nil, from, needle, "word", 2, ops.SimilarOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, m := range ms {
			lines = append(lines, fmt.Sprintf("%s/%s/%d", m.OID, m.Matched, m.Distance))
		}
		sort.Strings(lines)
		out = append(out, fmt.Sprintf("sim %q -> %v", needle, lines))

		top, err := store.TopNString(nil, from, "word", needle, 5, 3, ops.TopNOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var topLines []string
		for _, m := range top {
			topLines = append(topLines, fmt.Sprintf("%s/%s/%d", m.OID, m.Matched, m.Distance))
		}
		sort.Strings(topLines)
		out = append(out, fmt.Sprintf("topn %q -> %v", needle, topLines))
	}
	return out
}

// TestBulkLoadEquivalenceOracle is the acceptance oracle of the bulk load:
// for every executor (direct, actor), for serial and parallel worker counts
// and for a budget that splits the load into several windows, an engine
// loaded through core.Open must expose identical storage statistics and
// identical query results to one whose every tuple went through the routed
// InsertTuple. Run under -race this also exercises LoadWorkers > 1 for data
// races.
func TestBulkLoadEquivalenceOracle(t *testing.T) {
	const peers = 128
	tuples := bulkLoadCorpus()

	refStore := routedEngine(t, tuples, peers)
	refStats := refStore.Stats()
	refGrid := refStore.Grid().Stats()
	refProbe := bulkLoadProbe(t, refStore, peers)

	modes := []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor}
	for _, mode := range modes {
		for _, row := range []struct {
			name    string
			workers int
			budget  int64
		}{
			{"workers=1", 1, 0},
			{"workers=8", 8, 0},
			{"windowed", 8, 1 << 20},
		} {
			t.Run(fmt.Sprintf("%s/%s", mode, row.name), func(t *testing.T) {
				eng, err := core.Open(tuples, core.Config{
					Peers: peers, Runtime: mode, LoadWorkers: row.workers, LoadBudget: row.budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				if w := eng.LoadInfo().Windows; row.budget > 0 && w < 3 {
					t.Fatalf("budget %d loaded in %d windows, want at least 3", row.budget, w)
				}
				st := eng.Stats()
				if !reflect.DeepEqual(st.Storage, refStats) {
					t.Fatalf("storage stats diverge:\n got %+v\nwant %+v", st.Storage, refStats)
				}
				if st.Grid != refGrid {
					t.Fatalf("grid stats diverge:\n got %+v\nwant %+v", st.Grid, refGrid)
				}
				probe := bulkLoadProbe(t, eng.Store(), peers)
				for i := range refProbe {
					if probe[i] != refProbe[i] {
						t.Fatalf("query %d diverges:\n got %s\nwant %s", i, probe[i], refProbe[i])
					}
				}
			})
		}
	}
}

// TestBulkLoadedEngineSurvivesChurn is the load-pipeline churn regression:
// an engine loaded in parallel must keep answering exactly through a
// sustained Join/Leave/RefreshRefs mix — bulk-built stores hand their data
// over during splits exactly like incrementally grown ones.
func TestBulkLoadedEngineSurvivesChurn(t *testing.T) {
	const peers = 96
	tuples := bulkLoadCorpus()
	eng, err := core.Open(tuples, core.Config{
		Peers:       peers,
		LoadWorkers: 8,
		// Structural replication so graceful leaves have a surviving member.
		Grid: pgrid.Config{Replication: 2, RefsPerLevel: 2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bulkLoadProbe(t, eng.Store(), peers)

	joins, leaves := 0, 0
	for round := 0; round < 40; round++ {
		if round%2 == 0 {
			if _, _, err := eng.Join(); err != nil {
				t.Fatalf("join %d: %v", round, err)
			}
			joins++
		} else {
			id := eng.Grid().RandomPeer()
			switch err := eng.Leave(id); {
			case err == nil:
				leaves++
			case err == pgrid.ErrSoleOwner:
			default:
				t.Fatalf("leave %d: %v", round, err)
			}
		}
		eng.RefreshRefs()
		if round%10 == 9 {
			got := bulkLoadProbe(t, eng.Store(), peers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d: query %d diverges after churn:\n got %s\nwant %s",
						round, i, got[i], want[i])
				}
			}
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("churn mix degenerate: %d joins, %d leaves", joins, leaves)
	}
}
