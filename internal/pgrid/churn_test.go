package pgrid

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// buildChurnGrid constructs a grid for churn tests, bulk-loading nItems
// sequential postings. A non-nil wrap installs a test fabric over the
// serial network.
func buildChurnGrid(t *testing.T, wrap func(*simnet.Network) simnet.Fabric,
	nPeers, nItems int, cfg Config) (*Grid, *simnet.Network) {
	t.Helper()
	net := simnet.New(nPeers)
	var fab simnet.Fabric = net
	if wrap != nil {
		fab = wrap(net)
	}
	g := buildSeqGrid(t, fab, nPeers, nItems, cfg)
	net.Collector().Reset()
	return g, net
}

// TestChurnSafeMembershipDuringQueries is the acceptance test of the epoch
// model: well over 100 interleaved Join/Leave/RefreshRefs operations execute
// while lookups, multicasts and range queries run concurrently, on every
// execution engine — raw query goroutines on the serial fabric ("serial"),
// raw query goroutines on the critical-path fabric whose branches overlap in
// virtual time ("async"), and gated clients on the discrete-event actor
// executor ("actor"). Because every query reads one
// consistent epoch and graceful churn never destroys data, every query must
// return exactly the result of a churn-free run — no errors tolerated — and
// the race detector must stay silent.
func TestChurnSafeMembershipDuringQueries(t *testing.T) {
	critical := func(n *simnet.Network) simnet.Fabric { return criticalPath{n} }
	engines := map[string]struct {
		wrap func(*simnet.Network) simnet.Fabric
		exec ExecMode
	}{
		"serial": {exec: ExecChain},
		"async":  {wrap: critical, exec: ExecChain},
		"actor":  {exec: ExecActor},
	}
	for name, eng := range engines {
		exec := eng.exec
		t.Run(name, func(t *testing.T) {
			const (
				nPeers   = 24
				nItems   = 400
				churnOps = 130 // attempted membership operations (>= 100 must succeed)
			)
			cfg := DefaultConfig()
			cfg.Replication = 2
			cfg.RefsPerLevel = 3
			cfg.Exec = exec
			g, net := buildChurnGrid(t, eng.wrap, nPeers, nItems, cfg)

			var (
				wg        sync.WaitGroup
				succeeded atomic.Int64 // successful Join/Leave operations
				done      = make(chan struct{})
			)
			// Churn driver: joins new peers and gracefully removes previously
			// joined ones, refreshing routing tables along the way. Original
			// peers 0..nPeers-1 never leave, so query initiators stay valid.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				rng := rand.New(rand.NewSource(99))
				var joined []simnet.NodeID
				for op := 0; op < churnOps; op++ {
					if len(joined) > 0 && rng.Intn(2) == 0 {
						idx := rng.Intn(len(joined))
						id := joined[idx]
						switch err := g.Leave(nil, id); {
						case err == nil:
							joined = append(joined[:idx], joined[idx+1:]...)
							succeeded.Add(1)
						case errors.Is(err, ErrSoleOwner):
							// A split made this joiner a sole owner; it must
							// stay. Try another operation instead.
						default:
							t.Errorf("Leave(%d): %v", id, err)
							return
						}
					} else {
						id, err := g.Join(nil)
						if err != nil {
							t.Errorf("Join: %v", err)
							return
						}
						joined = append(joined, id)
						succeeded.Add(1)
					}
					if op%10 == 0 {
						g.RefreshRefs()
					}
				}
			}()

			// Query workers: routed lookups, batched multicasts and shower
			// range queries, all verified exactly.
			queryWorker := func(w int) {
				rng := rand.New(rand.NewSource(int64(1000 + w)))
				for {
					select {
					case <-done:
						return
					default:
					}
					from := simnet.NodeID(rng.Intn(nPeers))
					switch rng.Intn(3) {
					case 0:
						i := rng.Intn(nItems)
						res, err := g.Lookup(nil, from, testKey(i))
						if err != nil {
							t.Errorf("worker %d: Lookup(%d): %v", w, i, err)
							return
						}
						if len(res) != 1 || res[0].Triple.OID != fmt.Sprintf("o%d", i) {
							t.Errorf("worker %d: Lookup(%d) = %v", w, i, res)
							return
						}
					case 1:
						var ks []keys.Key
						want := map[string]bool{}
						for j := 0; j < 12; j++ {
							i := rng.Intn(nItems)
							ks = append(ks, testKey(i))
							want[fmt.Sprintf("o%d", i)] = true
						}
						res, _, err := g.MultiLookupAt(nil, from, ks, 0)
						if err != nil {
							t.Errorf("worker %d: MultiLookup: %v", w, err)
							return
						}
						got := map[string]bool{}
						for _, p := range res {
							got[p.Triple.OID] = true
						}
						if len(got) != len(want) {
							t.Errorf("worker %d: MultiLookup got %d oids, want %d", w, len(got), len(want))
							return
						}
					case 2:
						a, b := rng.Intn(nItems), rng.Intn(nItems)
						if a > b {
							a, b = b, a
						}
						if b-a > 60 {
							b = a + 60
						}
						res, err := g.RangeQuery(nil, from, keys.Interval{Lo: testKey(a), Hi: testKey(b)}, RangeOptions{})
						if err != nil {
							t.Errorf("worker %d: RangeQuery[%d,%d]: %v", w, a, b, err)
							return
						}
						if len(res) != b-a+1 {
							t.Errorf("worker %d: RangeQuery[%d,%d] = %d items, want %d", w, a, b, len(res), b-a+1)
							return
						}
					}
				}
			}
			if exec == ExecActor {
				// Actor mode: the workers are closed-loop clients on the
				// runtime's shared timeline, so they issue through the gated
				// Concurrent path (the raw-goroutine pump regime is gone).
				wg.Add(1)
				go func() {
					defer wg.Done()
					g.Concurrent(4, queryWorker)
				}()
			} else {
				// The chained fabrics have no shared timeline; raw goroutines
				// keep exercising the parallel-query race surface directly.
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						queryWorker(w)
					}(w)
				}
			}
			wg.Wait()

			if n := succeeded.Load(); n < 100 {
				t.Fatalf("only %d membership operations succeeded, want >= 100", n)
			}
			if net.DownCount() != 0 {
				t.Errorf("graceful churn marked %d peers down; DownCount must count crashes only", net.DownCount())
			}
			if g.DepartedCount() == 0 {
				t.Error("no departures recorded despite graceful leaves")
			}
			checkTrieInvariants(t, g)
			// The settled grid still answers everything correctly.
			lookupAll(t, g, nItems, rand.New(rand.NewSource(5)))
		})
	}
}

// TestJoinSkipsAllDownPartition pins the pickAlive fix: a Join must never
// copy data from a crashed host. With the most loaded partition entirely
// down, the join lands in the next-loaded partition instead.
func TestJoinSkipsAllDownPartition(t *testing.T) {
	g, net := buildTestGrid(t, 4, 400, DefaultConfig())
	v := g.snapshot()
	// Find the most loaded partition and take all its members down.
	loaded := v.leavesByLoad()[0]
	for _, id := range v.leaves.at(loaded).peers {
		net.SetDown(id, true)
	}
	downPath := v.leaves.at(loaded).path
	id, err := g.Join(nil)
	if err != nil {
		t.Fatalf("Join with one partition down: %v", err)
	}
	p, err := g.Peer(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path().HasPrefix(downPath) {
		t.Errorf("joiner path %s landed under all-down partition %s", p.Path(), downPath)
	}
	if p.StoreLen() == 0 {
		t.Error("joiner received no data despite live partitions existing")
	}
}

// TestJoinAllPeersDownErrors pins the other half of the fix: when every
// member of every partition is down there is no live handover source, and
// Join must fail loudly instead of silently copying from a crashed host.
func TestJoinAllPeersDownErrors(t *testing.T) {
	g, net := buildTestGrid(t, 4, 100, DefaultConfig())
	for id := 0; id < 4; id++ {
		net.SetDown(simnet.NodeID(id), true)
	}
	before := g.PeerCount()
	if _, err := g.Join(nil); !errors.Is(err, ErrNoLiveHost) {
		t.Fatalf("Join with all peers down = %v, want ErrNoLiveHost", err)
	}
	if g.PeerCount() != before {
		t.Errorf("failed join changed peer count %d -> %d", before, g.PeerCount())
	}
}

// TestLeaveLeavesNoZombie pins the zombie-peer fix: after a graceful Leave
// the slot is a tombstone, not an empty-path peer that Responsible() would
// claim for every key. Lookups keep working without any reliance on the
// failure set, the departed peer is not reported down, and stats separate
// departed from crashed.
func TestLeaveLeavesNoZombie(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 2
	cfg.RefsPerLevel = 3
	g, net := buildTestGrid(t, 24, 400, cfg)
	var victim simnet.NodeID = -1
	for _, l := range g.snapshot().leafList() {
		if len(l.peers) >= 2 {
			victim = l.peers[0]
			break
		}
	}
	if victim < 0 {
		t.Skip("no replicated partition")
	}
	if err := g.Leave(nil, victim); err != nil {
		t.Fatal(err)
	}

	// The slot is tombstoned, not a zombie claiming the whole key space.
	if _, err := g.Peer(victim); !errors.Is(err, ErrDeparted) {
		t.Fatalf("Peer(departed) = %v, want ErrDeparted", err)
	}
	// Graceful departure is not a crash: the failure set stays empty...
	if net.DownCount() != 0 {
		t.Errorf("DownCount = %d after graceful leave, want 0", net.DownCount())
	}
	// ...and the accounting distinguishes the two.
	if g.DepartedCount() != 1 {
		t.Errorf("DepartedCount = %d, want 1", g.DepartedCount())
	}
	s := g.Stats()
	if s.Peers != 23 || s.Departed != 1 {
		t.Errorf("Stats peers/departed = %d/%d, want 23/1", s.Peers, s.Departed)
	}
	// A departed peer cannot leave twice.
	if err := g.Leave(nil, victim); !errors.Is(err, ErrDeparted) {
		t.Errorf("second Leave = %v, want ErrDeparted", err)
	}
	// No leaf or replica list references the tombstone.
	v := g.snapshot()
	for _, l := range v.leafList() {
		for _, id := range l.peers {
			if id == victim {
				t.Fatalf("leaf %s still lists departed peer %d", l.path, id)
			}
		}
	}
	for _, p := range v.peerList() {
		if p == nil {
			continue
		}
		for _, r := range p.replicas {
			if r == victim {
				t.Fatalf("peer %d still lists departed %d as replica", p.id, victim)
			}
		}
	}
	// Every lookup lands on a live responsible peer — with the zombie bug,
	// routing could stop at the empty-path slot and return nothing.
	for i := 0; i < 400; i += 2 {
		from := simnet.NodeID(i % 24)
		if from == victim {
			from = (from + 1) % 24
		}
		res, err := g.Lookup(nil, from, testKey(i))
		if err != nil {
			t.Fatalf("Lookup(%d) after leave: %v", i, err)
		}
		if len(res) != 1 {
			t.Fatalf("Lookup(%d) after leave found %d postings", i, len(res))
		}
	}
}

// TestJoinAfterLeaveNeverReusesTombstone: ids grow monotonically, so stale
// epochs can never confuse a departed peer with a newcomer.
func TestJoinAfterLeaveNeverReusesTombstone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 2
	g, _ := buildTestGrid(t, 8, 200, cfg)
	var victim simnet.NodeID = -1
	for _, l := range g.snapshot().leafList() {
		if len(l.peers) >= 2 {
			victim = l.peers[0]
			break
		}
	}
	if victim < 0 {
		t.Skip("no replicated partition")
	}
	if err := g.Leave(nil, victim); err != nil {
		t.Fatal(err)
	}
	id, err := g.Join(nil)
	if err != nil {
		t.Fatal(err)
	}
	if id == victim {
		t.Fatalf("Join reused departed id %d", victim)
	}
	if int(id) != g.PeerCount()-1 {
		t.Errorf("Join id = %d, want %d", id, g.PeerCount()-1)
	}
}

// TestEpochAdvancesOnMembershipChanges: every structural change publishes a
// new epoch; queries and no-op refreshes do not.
func TestEpochAdvancesOnMembershipChanges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 2
	g, _ := buildTestGrid(t, 8, 200, cfg)
	e0 := g.Epoch()
	if _, err := g.Lookup(nil, 0, testKey(2)); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != e0 {
		t.Errorf("query advanced the epoch %d -> %d", e0, g.Epoch())
	}
	if n := g.RefreshRefs(); n != 0 {
		t.Errorf("healthy RefreshRefs changed %d levels", n)
	}
	if g.Epoch() != e0 {
		t.Error("no-op RefreshRefs advanced the epoch")
	}
	if _, err := g.Join(nil); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != e0+1 {
		t.Errorf("Join advanced epoch to %d, want %d", g.Epoch(), e0+1)
	}
}

// liveHeap is HeapAlloc after two forced collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestJoinReplicaStoreAtBulkOccupancy: a newcomer's store is built bottom-up
// from the handed-over (key-ordered) partition, so k joins onto replicated
// partitions grow the live heap by about k bulk-loaded partitions — not by the
// nearly fourfold of that which one ascending Insert per entry leaves behind
// (half-empty leaves in full-capacity slices).
func TestJoinReplicaStoreAtBulkOccupancy(t *testing.T) {
	const nPeers, nItems, joins = 8, 40000, 6
	cfg := DefaultConfig()
	cfg.Replication = 2 // every partition is replicated: each join copies one whole
	g, _ := buildChurnGrid(t, nil, nPeers, nItems, cfg)

	var largest postingSet
	for id := 0; id < nPeers; id++ {
		p, err := g.Peer(simnet.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		if s := p.allPostings(); s.size > largest.size {
			largest = s
		}
	}
	before := liveHeap()
	ref := btree.New[triples.Posting]()
	ref.BulkLoadSorted(largest.keys, largest.postings)
	partition := liveHeap() - before
	runtime.KeepAlive(ref)
	runtime.KeepAlive(largest) // or the snapshot's death would offset the tree

	before = liveHeap()
	for i := 0; i < joins; i++ {
		if _, err := g.Join(nil); err != nil {
			t.Fatal(err)
		}
	}
	grown := liveHeap() - before
	if g.LeafCount() != nPeers/2 {
		t.Fatalf("%d partitions after the joins, want %d: a join split instead of replicating", g.LeafCount(), nPeers/2)
	}
	if bound := joins * partition * 13 / 10; grown > bound {
		t.Errorf("%d joins grew the live heap by %d B, over 1.3 x %d x the largest partition's bulk-loaded %d B = %d B",
			joins, grown, joins, partition, bound)
	}
	runtime.KeepAlive(g)
}
