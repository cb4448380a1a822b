package ops

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/keys"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

func loadTestTuples() []triples.Tuple {
	words := []string{"alpha", "beta", "gamma", "delta", "beta", "epsilon", "ze", "a"}
	var tuples []triples.Tuple
	for i, w := range words {
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("o%03d", i),
			"word", w, "len", float64(len(w)), "tag", fmt.Sprintf("t%d", i%3)))
	}
	return tuples
}

// storeFingerprint hashes every peer's full posting stream in store order —
// keys ordered, duplicate-key postings in posting order — so two grids
// compare byte for byte.
func storeFingerprint(t *testing.T, g *pgrid.Grid, nPeers int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf []byte
	for id := 0; id < nPeers; id++ {
		p, err := g.Peer(simnet.NodeID(id))
		if err != nil {
			continue // departed slot
		}
		for _, post := range p.LocalPrefix(keys.Key{}) {
			buf = triples.AppendPosting(buf[:0], post)
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// sortedKeys returns a sorted copy of a balancing sample; grid construction
// sorts the sample, so only its multiset matters.
func sortedKeys(ks []keys.Key) []keys.Key {
	out := slices.Clone(ks)
	slices.SortFunc(out, keys.Key.Compare)
	return out
}

// buildLoadGrid builds an n-peer grid balanced on sample, with an empty store
// over it.
func buildLoadGrid(t *testing.T, sample []keys.Key, cfg StoreConfig, nPeers int, gcfg pgrid.Config) (*pgrid.Grid, *Store) {
	t.Helper()
	grid, err := pgrid.Build(simnet.New(nPeers), nPeers, sample, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	return grid, NewStore(grid, cfg)
}

// routedLoad is the reference loader: every tuple goes through the routed
// InsertTuple, initiated round-robin from the peers.
func routedLoad(t *testing.T, st *Store, tuples []triples.Tuple, nPeers int) {
	t.Helper()
	for i, tu := range tuples {
		if err := st.InsertTuple(nil, simnet.NodeID(i%nPeers), tu); err != nil {
			t.Fatal(err)
		}
	}
}

// loadTestCorpus is bible words for volume, plus objects with several
// attributes and a numeric value, so more than one catalog posting is at
// stake; a 64 KiB budget cuts it into several windows.
func loadTestCorpus() []triples.Tuple {
	return append(dataset.StringTuples("word", "w", dataset.BibleWords(300, 11)), loadTestTuples()...)
}

// TestPlanLoadSampleMatchesCollectKeys pins the grid-identity invariant
// against an oracle independent of the planner: the plan's balancing sample
// is, as a multiset, exactly the keys the routed write derives for the same
// tuples — every index entry of every triple, catalog entries excluded —
// whatever the workers and windows. A one-window sample also comes out
// sorted, so grid construction reads it in place instead of copying it.
func TestPlanLoadSampleMatchesCollectKeys(t *testing.T) {
	tuples := loadTestCorpus()
	cfg := StoreConfig{}
	ref := NewStore(nil, cfg)
	var want []keys.Key
	for _, tu := range tuples {
		ts, err := triples.Decompose(tu)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ts {
			for _, e := range ref.entriesForTriple(tr, false) {
				want = append(want, e.Key)
			}
		}
	}
	want = sortedKeys(want)
	for _, budget := range []int64{0, 64 << 10} {
		for _, workers := range []int{1, 3, 8} {
			p, err := PlanLoadStream(tuples, cfg, workers, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(p.SampleKeys()); !slices.EqualFunc(got, want, keys.Key.Equal) {
				t.Fatalf("budget=%d workers=%d: sample of %d keys differs from the routed write's %d",
					budget, workers, len(got), len(want))
			}
			if budget == 0 && !slices.IsSortedFunc(p.SampleKeys(), keys.Key.Compare) {
				t.Fatalf("workers=%d: the one-window sample is not sorted", workers)
			}
		}
	}
}

// TestApplyLoadPlanMatchesSerialLoad checks plan-based loading against a
// serial routed load on a replicated grid: at replication 2, one window or
// several, ApplyLoadPlan leaves every replica's store byte-identical to
// routing each tuple through InsertTuple, with the same statistics.
func TestApplyLoadPlanMatchesSerialLoad(t *testing.T) {
	tuples := loadTestCorpus()
	cfg := StoreConfig{}
	gcfg := pgrid.DefaultConfig()
	gcfg.Replication = 2
	const nPeers = 16

	for _, budget := range []int64{0, 64 << 10} {
		for _, workers := range []int{1, 4} {
			p, err := PlanLoadStream(tuples, cfg, workers, budget)
			if err != nil {
				t.Fatal(err)
			}
			refGrid, ref := buildLoadGrid(t, p.SampleKeys(), cfg, nPeers, gcfg)
			routedLoad(t, ref, tuples, nPeers)
			grid, st := buildLoadGrid(t, p.SampleKeys(), cfg, nPeers, gcfg)
			if err := st.ApplyLoadPlan(p, workers); err != nil {
				t.Fatal(err)
			}
			if got, want := storeFingerprint(t, grid, nPeers), storeFingerprint(t, refGrid, nPeers); got != want {
				t.Fatalf("budget=%d workers=%d: loaded store fingerprint %016x, routed inserts %016x",
					budget, workers, got, want)
			}
			if got, want := st.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("budget=%d workers=%d: stats %+v, want %+v", budget, workers, got, want)
			}
		}
	}
}

// TestStreamLoadMatchesMaterializing is the ops-level load oracle. For every
// budget — one window, many tiny windows, a few, and one window covering
// everything — and for serial and parallel workers, the plan samples the same
// key multiset as the budget-0 serial plan, and applying it leaves the grid
// byte-identical, with the same statistics, to routing every tuple through
// InsertTuple on a grid built from that sample.
func TestStreamLoadMatchesMaterializing(t *testing.T) {
	tuples := loadTestCorpus()
	cfg := StoreConfig{}
	const nPeers = 24

	plan := func(budget int64, workers int) *LoadPlan {
		t.Helper()
		p, err := PlanLoadStream(tuples, cfg, workers, budget)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	build := func(sample []keys.Key) (*pgrid.Grid, *Store) {
		return buildLoadGrid(t, sample, cfg, nPeers, pgrid.DefaultConfig())
	}

	base := plan(0, 1)
	wantSample := sortedKeys(base.SampleKeys())
	refGrid, ref := build(base.SampleKeys())
	routedLoad(t, ref, tuples, nPeers)
	want := storeFingerprint(t, refGrid, nPeers)
	wantStats := ref.Stats()

	for _, tc := range []struct {
		name    string
		budget  int64
		workers int
	}{
		{"zero-budget-one-window", 0, 4},
		{"zero-budget-serial", 0, 1},
		{"tiny-budget-many-windows", 64 << 10, 4},
		{"tiny-budget-serial", 64 << 10, 1},
		{"mid-budget", 256 << 10, 4},
		{"mid-budget-serial", 256 << 10, 1},
		{"huge-budget-one-window", 1 << 40, 4},
		{"huge-budget-serial", 1 << 40, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := plan(tc.budget, tc.workers)
			windowed := tc.budget > 0 && tc.budget < 1<<30
			if windowed && p.Windows() < 2 || !windowed && p.Windows() != 1 {
				t.Fatalf("budget %d produced %d windows", tc.budget, p.Windows())
			}
			if p.PeakEntryBytes() > base.PeakEntryBytes() ||
				windowed && p.PeakEntryBytes()*2 > base.PeakEntryBytes() {
				t.Fatalf("peak %d over %d windows, one window's %d",
					p.PeakEntryBytes(), p.Windows(), base.PeakEntryBytes())
			}
			if p.Postings() != int(wantStats.Postings) || p.Triples() != wantStats.Triples {
				t.Fatalf("plan reports %d postings / %d triples, want %d / %d",
					p.Postings(), p.Triples(), wantStats.Postings, wantStats.Triples)
			}
			if !slices.EqualFunc(sortedKeys(p.SampleKeys()), wantSample, keys.Key.Equal) {
				t.Fatal("sample multiset differs from the budget-0 serial plan's")
			}
			grid, st := build(p.SampleKeys())
			if err := st.ApplyLoadPlan(p, tc.workers); err != nil {
				t.Fatal(err)
			}
			if got := storeFingerprint(t, grid, nPeers); got != want {
				t.Fatalf("loaded store fingerprint %016x, routed inserts %016x", got, want)
			}
			if got := st.Stats(); !reflect.DeepEqual(got, wantStats) {
				t.Fatalf("stats %+v, want %+v", got, wantStats)
			}
			// A runtime insert after the load must not duplicate catalog
			// postings: the plan's attribute set was adopted.
			if err := st.InsertTriple(nil, grid.RandomPeer(),
				triples.Triple{OID: "oX", Attr: "word", Val: triples.String("omega")}); err != nil {
				t.Fatal(err)
			}
			if n := st.Stats().ByIndex[triples.IndexCatalog]; n != wantStats.ByIndex[triples.IndexCatalog] {
				t.Fatalf("catalog postings grew to %d on a known attribute", n)
			}
		})
	}
}

// TestPlanLoadValidationDeterministic pins error behaviour: the first invalid
// tuple in data order is reported, whatever the worker count.
func TestPlanLoadValidationDeterministic(t *testing.T) {
	tuples := loadTestTuples()
	bad := triples.Tuple{OID: "bad", Fields: []triples.Field{
		{Name: "word", Val: triples.String("ok")},
		{Name: "word", Val: triples.String("has\x01pad")},
	}}
	tuples = append(tuples[:3], append([]triples.Tuple{bad}, tuples[3:]...)...)
	for _, workers := range []int{1, 4} {
		_, err := PlanLoadStream(tuples, StoreConfig{}, workers, 0)
		if !errors.Is(err, triples.ErrBadValueChar) {
			t.Fatalf("workers=%d: err = %v, want ErrBadValueChar", workers, err)
		}
	}
}

// TestApplyLoadPlanConfigMismatch pins the guard against loading a plan into
// a store with different storage parameters.
func TestApplyLoadPlanConfigMismatch(t *testing.T) {
	p, err := PlanLoadStream(loadTestTuples(), StoreConfig{Q: 2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := pgrid.Build(simnet.New(4), 4, p.SampleKeys(), pgrid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStore(grid, StoreConfig{Q: 3}).ApplyLoadPlan(p, 1); err == nil {
		t.Fatal("ApplyLoadPlan accepted a mismatched config")
	}
}

// TestPlanLoadEmptyDataset: an empty plan loads nothing and errors nowhere.
func TestPlanLoadEmptyDataset(t *testing.T) {
	p, err := PlanLoadStream(nil, StoreConfig{}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Postings() != 0 || len(p.SampleKeys()) != 0 || p.Triples() != 0 {
		t.Fatalf("empty plan not empty: %d postings, %d sample keys", p.Postings(), len(p.SampleKeys()))
	}
	grid, err := pgrid.Build(simnet.New(2), 2, p.SampleKeys(), pgrid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStore(grid, StoreConfig{}).ApplyLoadPlan(p, 4); err != nil {
		t.Fatal(err)
	}
}
