package pgrid

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// testKey builds a fixed-width key so no stored key is a prefix of another.
func testKey(i int) keys.Key {
	return keys.StringKey(fmt.Sprintf("k%06d", i))
}

func testPosting(i int) triples.Posting {
	return triples.Posting{
		Index:  triples.IndexAttrValue,
		Triple: triples.Triple{OID: fmt.Sprintf("o%d", i), Attr: "a", Val: triples.Number(float64(i))},
	}
}

// seqEntries returns n sequential (testKey(i), testPosting(i)) entries and
// their keys, the balancing sample of a grid that holds them.
func seqEntries(n int) ([]BulkEntry, []keys.Key) {
	entries := make([]BulkEntry, n)
	sample := make([]keys.Key, n)
	for i := range entries {
		entries[i] = BulkEntry{Key: testKey(i), Posting: testPosting(i)}
		sample[i] = entries[i].Key
	}
	return entries, sample
}

// buildSeqGrid constructs a grid over nPeers peers of fab, balanced for and
// bulk-loaded with nItems sequential items.
func buildSeqGrid(t testing.TB, fab simnet.Fabric, nPeers, nItems int, cfg Config) *Grid {
	t.Helper()
	entries, sample := seqEntries(nItems)
	g, err := Build(fab, nPeers, sample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.BulkLoad(entries, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

// buildTestGrid constructs a grid over n peers holding m sequential items.
func buildTestGrid(t testing.TB, nPeers, nItems int, cfg Config) (*Grid, *simnet.Network) {
	t.Helper()
	net := simnet.New(nPeers)
	g := buildSeqGrid(t, net, nPeers, nItems, cfg)
	net.Collector().Reset()
	return g, net
}

func TestBuildRejectsZeroPeers(t *testing.T) {
	if _, err := Build(simnet.New(0), 0, nil, DefaultConfig()); err == nil {
		t.Error("Build with 0 peers succeeded")
	}
}

func TestBuildSinglePeer(t *testing.T) {
	g, _ := buildTestGrid(t, 1, 100, DefaultConfig())
	if g.LeafCount() != 1 {
		t.Errorf("LeafCount = %d", g.LeafCount())
	}
	var tally metrics.Tally
	res, err := g.Lookup(&tally, 0, testKey(42))
	if err != nil || len(res) != 1 {
		t.Fatalf("Lookup = %v, %v", res, err)
	}
	if tally.Messages != 0 {
		t.Errorf("single-peer lookup cost %d messages", tally.Messages)
	}
}

// Trie completeness: leaf paths are prefix-free and their subtries tile the
// whole key space (sum of 2^-depth over leaves equals 1).
func TestTrieComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64, 100} {
		g, _ := buildTestGrid(t, n, 500, DefaultConfig())
		paths := make([]keys.Key, 0, g.LeafCount())
		for _, l := range g.snapshot().leafList() {
			paths = append(paths, l.path)
		}
		maxDepth := 0
		for _, p := range paths {
			if p.Len() > maxDepth {
				maxDepth = p.Len()
			}
		}
		if maxDepth > 62 {
			t.Fatalf("n=%d: depth %d too large for exact tiling check", n, maxDepth)
		}
		var total uint64
		for _, p := range paths {
			total += uint64(1) << uint(maxDepth-p.Len())
		}
		if total != uint64(1)<<uint(maxDepth) {
			t.Errorf("n=%d: leaves tile %d/%d of key space", n, total, uint64(1)<<uint(maxDepth))
		}
		for i := range paths {
			for j := range paths {
				if i != j && paths[j].HasPrefix(paths[i]) {
					t.Errorf("n=%d: leaf %s is prefix of leaf %s", n, paths[i], paths[j])
				}
			}
		}
	}
}

func TestEveryPeerAssignedAndReplicasConsistent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 3
	g, _ := buildTestGrid(t, 30, 1000, cfg)
	seen := map[simnet.NodeID]bool{}
	for _, l := range g.snapshot().leafList() {
		if len(l.peers) == 0 {
			t.Fatal("leaf without peers")
		}
		for _, id := range l.peers {
			if seen[id] {
				t.Fatalf("peer %d assigned twice", id)
			}
			seen[id] = true
			p, err := g.Peer(id)
			if err != nil {
				t.Fatal(err)
			}
			if !p.path.Equal(l.path) {
				t.Fatalf("peer %d path mismatch", id)
			}
			if len(p.replicas) != len(l.peers)-1 {
				t.Fatalf("peer %d has %d replicas, want %d", id, len(p.replicas), len(l.peers)-1)
			}
		}
	}
	if len(seen) != 30 {
		t.Fatalf("assigned %d peers, want 30", len(seen))
	}
}

func TestRoutingTablesPointToComplementarySubtries(t *testing.T) {
	g, _ := buildTestGrid(t, 64, 2000, DefaultConfig())
	for _, p := range g.snapshot().peerList() {
		for l, refs := range p.refs {
			if len(refs) == 0 {
				t.Fatalf("peer %d has no refs at level %d (path %s)", p.id, l, p.path)
			}
			sibling := p.path.Prefix(l + 1).FlipLast()
			for _, id := range refs {
				q, err := g.Peer(id)
				if err != nil {
					t.Fatal(err)
				}
				if !q.path.HasPrefix(sibling) {
					t.Fatalf("peer %d level %d ref %d path %s not under sibling %s",
						p.id, l, id, q.path, sibling)
				}
			}
		}
	}
}

func TestLookupFindsEveryItem(t *testing.T) {
	g, _ := buildTestGrid(t, 50, 800, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 800; i += 7 {
		from := simnet.NodeID(rng.Intn(50))
		res, err := g.Lookup(nil, from, testKey(i))
		if err != nil {
			t.Fatalf("Lookup(%d): %v", i, err)
		}
		if len(res) != 1 || res[0].Triple.OID != fmt.Sprintf("o%d", i) {
			t.Fatalf("Lookup(%d) = %v", i, res)
		}
	}
}

func TestLookupMissingKeyReturnsEmpty(t *testing.T) {
	g, _ := buildTestGrid(t, 20, 100, DefaultConfig())
	res, err := g.Lookup(nil, 0, keys.StringKey("knothere"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("missing key returned %v", res)
	}
}

func TestLookupCostLogarithmic(t *testing.T) {
	// Section 2: expected search cost is ~0.5*log2(partitions) messages.
	for _, n := range []int{16, 64, 256} {
		g, _ := buildTestGrid(t, n, 5000, DefaultConfig())
		rng := rand.New(rand.NewSource(4))
		var total int64
		const trials = 300
		for i := 0; i < trials; i++ {
			var tally metrics.Tally
			from := simnet.NodeID(rng.Intn(n))
			item := rng.Intn(5000)
			if _, err := g.Lookup(&tally, from, testKey(item)); err != nil {
				t.Fatal(err)
			}
			total += tally.Messages - 1 // subtract the result message
		}
		avg := float64(total) / trials
		logN := math.Log2(float64(g.LeafCount()))
		if avg > logN+1 {
			t.Errorf("n=%d: avg routing hops %.2f exceeds log2(leaves)+1 = %.2f", n, avg, logN+1)
		}
		if avg < 0.2*logN {
			t.Errorf("n=%d: avg routing hops %.2f suspiciously low vs log2 %.2f", n, avg, logN)
		}
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	g, _ := buildTestGrid(t, 40, 600, DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Intn(600), rng.Intn(600)
		if a > b {
			a, b = b, a
		}
		iv := keys.Interval{Lo: testKey(a), Hi: testKey(b)}
		res, err := g.RangeQuery(nil, simnet.NodeID(rng.Intn(40)), iv, RangeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != b-a+1 {
			t.Fatalf("range [%d,%d] returned %d items, want %d", a, b, len(res), b-a+1)
		}
		seen := map[string]bool{}
		for _, p := range res {
			if seen[p.Triple.OID] {
				t.Fatalf("duplicate delivery of %s", p.Triple.OID)
			}
			seen[p.Triple.OID] = true
		}
	}
}

func TestRangeQueryWithFilter(t *testing.T) {
	g, _ := buildTestGrid(t, 30, 300, DefaultConfig())
	iv := keys.Interval{Lo: testKey(0), Hi: testKey(299)}
	even := func(p triples.Posting) bool { return int(p.Triple.Val.Num)%2 == 0 }
	res, err := g.RangeQuery(nil, 0, iv, RangeOptions{Filter: even, FilterBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 150 {
		t.Errorf("filtered range returned %d, want 150", len(res))
	}
}

func TestRangeQueryInvalidInterval(t *testing.T) {
	g, _ := buildTestGrid(t, 10, 100, DefaultConfig())
	if _, err := g.RangeQuery(nil, 0, keys.Interval{Lo: testKey(5), Hi: testKey(1)}, RangeOptions{}); err == nil {
		t.Error("invalid interval accepted")
	}
}

func TestRangeQueryMessageCountScalesWithCoveredLeaves(t *testing.T) {
	g, _ := buildTestGrid(t, 64, 5000, DefaultConfig())
	var narrow, wide metrics.Tally
	if _, err := g.RangeQuery(&narrow, 0, keys.Interval{Lo: testKey(100), Hi: testKey(110)}, RangeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RangeQuery(&wide, 0, keys.Interval{Lo: testKey(0), Hi: testKey(4999)}, RangeOptions{}); err != nil {
		t.Fatal(err)
	}
	if narrow.Messages >= wide.Messages {
		t.Errorf("narrow range cost %d >= wide range cost %d", narrow.Messages, wide.Messages)
	}
	// The wide range must touch every leaf: at least one message per leaf.
	if wide.Messages < int64(g.LeafCount()) {
		t.Errorf("wide range cost %d < leaf count %d", wide.Messages, g.LeafCount())
	}
}

// The shower algorithm's defining property: each partition overlapping the
// range receives the query exactly once (Datta et al. [6]); duplicates would
// inflate the paper's message counts.
func TestShowerDeliversExactlyOnce(t *testing.T) {
	g, net := buildTestGrid(t, 48, 1200, DefaultConfig())
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		a, b := rng.Intn(1200), rng.Intn(1200)
		if a > b {
			a, b = b, a
		}
		received := map[simnet.NodeID]int{}
		net.SetTracer(func(e simnet.TraceEvent) {
			if e.Err == nil && e.Msg.Kind() == "pgrid.range" {
				received[e.To]++
			}
		})
		from := simnet.NodeID(rng.Intn(48))
		if _, err := g.RangeQuery(nil, from, keys.Interval{Lo: testKey(a), Hi: testKey(b)}, RangeOptions{}); err != nil {
			t.Fatal(err)
		}
		net.SetTracer(nil)
		// Routing toward the range may pass through a peer that later also
		// receives the shower forward; only shower duplicates to the same
		// peer would break the count. Assert nobody got the range message
		// more than twice (once as routing relay, once as shower target)
		// and that the vast majority got it exactly once.
		multi := 0
		for id, n := range received {
			if n > 2 {
				t.Fatalf("peer %d received the range %d times", id, n)
			}
			if n == 2 {
				multi++
			}
		}
		if multi > 2 {
			t.Fatalf("%d peers received the range twice (routing overlap should be rare)", multi)
		}
	}
}

// Same invariant for the batched multicast: each partition receives at most
// one multilookup message per query.
func TestMultiLookupDeliversOncePerPartition(t *testing.T) {
	g, net := buildTestGrid(t, 40, 1000, DefaultConfig())
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		var ks []keys.Key
		for i := 0; i < 40; i++ {
			ks = append(ks, testKey(rng.Intn(1000)))
		}
		received := map[simnet.NodeID]int{}
		net.SetTracer(func(e simnet.TraceEvent) {
			if e.Err == nil && e.Msg.Kind() == "pgrid.multilookup" {
				received[e.To]++
			}
		})
		if _, _, err := g.MultiLookupAt(nil, simnet.NodeID(rng.Intn(40)), ks, 0); err != nil {
			t.Fatal(err)
		}
		net.SetTracer(nil)
		for id, n := range received {
			if n > 1 {
				t.Fatalf("peer %d received %d multilookup forwards in one query", id, n)
			}
		}
	}
}

func TestPrefixQuery(t *testing.T) {
	g, _ := buildTestGrid(t, 30, 400, DefaultConfig())
	// The keys k000000..k000399 all share the prefix "k000".
	res, err := g.PrefixQuery(nil, 0, keys.StringKey("k000"), RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 400 {
		t.Errorf("prefix query returned %d, want 400", len(res))
	}
	res, err = g.PrefixQuery(nil, 0, keys.StringKey("k00020"), RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 { // k000200..k000209
		t.Errorf("narrow prefix query returned %d, want 10", len(res))
	}
}

func TestMultiLookupMatchesIndividualLookups(t *testing.T) {
	g, _ := buildTestGrid(t, 48, 1000, DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		var ks []keys.Key
		want := map[string]bool{}
		for i := 0; i < 30; i++ {
			id := rng.Intn(1000)
			ks = append(ks, testKey(id))
			want[fmt.Sprintf("o%d", id)] = true
		}
		res, _, err := g.MultiLookupAt(nil, simnet.NodeID(rng.Intn(48)), ks, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, p := range res {
			got[p.Triple.OID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("MultiLookup found %d oids, want %d", len(got), len(want))
		}
		for oid := range want {
			if !got[oid] {
				t.Fatalf("MultiLookup missed %s", oid)
			}
		}
	}
}

func TestMultiLookupCheaperThanIndividual(t *testing.T) {
	g, _ := buildTestGrid(t, 64, 2000, DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	var ks []keys.Key
	for i := 0; i < 100; i++ {
		ks = append(ks, testKey(rng.Intn(2000)))
	}
	var batched metrics.Tally
	if _, _, err := g.MultiLookupAt(&batched, 0, ks, 0); err != nil {
		t.Fatal(err)
	}
	var individual metrics.Tally
	for _, k := range ks {
		if _, err := g.Lookup(&individual, 0, k); err != nil {
			t.Fatal(err)
		}
	}
	if batched.Messages >= individual.Messages {
		t.Errorf("batched %d messages >= individual %d", batched.Messages, individual.Messages)
	}
}

func TestInsertRoutedAndReplicated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 3
	g, _ := buildTestGrid(t, 30, 500, cfg)
	var tally metrics.Tally
	k := testKey(123456 % 500) // existing keyspace region
	k = keys.StringKey("k999999")
	if err := g.Insert(&tally, 0, k, testPosting(999999)); err != nil {
		t.Fatal(err)
	}
	if tally.Messages == 0 {
		t.Log("insert was local (initiator responsible); acceptable")
	}
	res, err := g.Lookup(nil, 5, k)
	if err != nil || len(res) != 1 {
		t.Fatalf("Lookup after insert = %v, %v", res, err)
	}
	// All replicas of the partition must hold the posting.
	v := g.snapshot()
	li := v.leafForHashed(g.h.hash(k))
	for _, id := range v.leaves.at(li).peers {
		if got := v.peers.at(id).localPrefix(k); len(got) != 1 {
			t.Errorf("replica %d holds %d copies", id, len(got))
		}
	}
}

func TestDelete(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 2
	g, _ := buildTestGrid(t, 20, 300, cfg)
	k := testKey(100)
	ok, err := g.Delete(nil, 3, k, nil)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	res, err := g.Lookup(nil, 3, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("key present after delete: %v", res)
	}
	ok, err = g.Delete(nil, 3, k, nil)
	if err != nil || ok {
		t.Errorf("second delete = %v, %v", ok, err)
	}
}

func TestLookupSurvivesFailuresWithReplication(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 3
	cfg.RefsPerLevel = 3
	g, net := buildTestGrid(t, 60, 1000, cfg)
	rng := rand.New(rand.NewSource(8))
	// Take down one replica of every partition (leaving at least one up).
	for _, l := range g.snapshot().leafList() {
		if len(l.peers) > 1 {
			net.SetDown(l.peers[rng.Intn(len(l.peers))], true)
		}
	}
	alive := func() simnet.NodeID {
		for {
			id := simnet.NodeID(rng.Intn(60))
			if !net.IsDown(id) {
				return id
			}
		}
	}
	found := 0
	for i := 0; i < 200; i++ {
		item := rng.Intn(1000)
		res, err := g.Lookup(nil, alive(), testKey(item))
		if err != nil {
			continue // a partition may still be unreachable via down refs
		}
		if len(res) == 1 {
			found++
		}
	}
	if found < 190 {
		t.Errorf("only %d/200 lookups succeeded under failures", found)
	}
}

func TestRangeQuerySurvivesPartialFailures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 2
	cfg.RefsPerLevel = 3
	g, net := buildTestGrid(t, 40, 500, cfg)
	// Take down a single peer; its partition replica must still answer.
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
	net.SetDown(victim, true)
	from := simnet.NodeID(0)
	if net.IsDown(from) {
		from = 1
	}
	res, err := g.RangeQuery(nil, from, keys.Interval{Lo: testKey(0), Hi: testKey(499)}, RangeOptions{})
	if err != nil {
		t.Logf("partial error (acceptable if some branch unreachable): %v", err)
	}
	if len(res) < 450 {
		t.Errorf("only %d/500 items retrieved with one peer down", len(res))
	}
}

func TestRefreshRefsRepairsRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replication = 2
	cfg.RefsPerLevel = 2
	g, net := buildTestGrid(t, 80, 2000, cfg)
	rng := rand.New(rand.NewSource(10))
	// Take down 15% of peers, leaving at least one replica per partition.
	down := 0
	for _, l := range g.snapshot().leafList() {
		if len(l.peers) > 1 && down < 12 {
			net.SetDown(l.peers[rng.Intn(len(l.peers))], true)
			down++
		}
	}
	replaced := g.RefreshRefs()
	if replaced == 0 {
		t.Fatal("RefreshRefs replaced nothing despite failures")
	}
	// After the repair no live peer's table may reference a down peer while
	// a live alternative exists in the sibling subtrie. The repair published
	// a new epoch: snapshot again.
	v := g.snapshot()
	for _, p := range v.peerList() {
		if net.IsDown(p.id) {
			continue
		}
		for l, refs := range p.refs {
			sibling := p.path.Prefix(l + 1).FlipLast()
			lo, hi := v.leafRange(sibling)
			liveExists := false
			for li := lo; li < hi && !liveExists; li++ {
				for _, id := range v.leaves.at(li).peers {
					if !net.IsDown(id) {
						liveExists = true
						break
					}
				}
			}
			if !liveExists {
				continue
			}
			for _, id := range refs {
				if net.IsDown(id) {
					t.Fatalf("peer %d level %d still references down peer %d", p.id, l, id)
				}
			}
		}
	}
	// And lookups from live initiators succeed across the data.
	ok := 0
	for i := 0; i < 100; i++ {
		from := simnet.NodeID(rng.Intn(80))
		if net.IsDown(from) {
			continue
		}
		res, err := g.Lookup(nil, from, testKey(rng.Intn(2000)))
		if err == nil && len(res) == 1 {
			ok++
		}
	}
	if ok < 80 {
		t.Errorf("only %d lookups succeeded after repair", ok)
	}
}

func TestRefreshRefsNoFailuresIsNoop(t *testing.T) {
	g, _ := buildTestGrid(t, 20, 200, DefaultConfig())
	if n := g.RefreshRefs(); n != 0 {
		t.Errorf("RefreshRefs replaced %d refs on a healthy grid", n)
	}
}

func TestBuildDeterministicWithSeed(t *testing.T) {
	mk := func() []string {
		net := simnet.New(32)
		sample := make([]keys.Key, 400)
		for i := range sample {
			sample[i] = testKey(i)
		}
		cfg := DefaultConfig()
		cfg.Seed = 42
		g, err := Build(net, 32, sample, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range g.snapshot().peerList() {
			out = append(out, p.path.String())
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("peer %d path differs across identical builds: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestStats(t *testing.T) {
	g, _ := buildTestGrid(t, 25, 500, DefaultConfig())
	s := g.Stats()
	if s.Peers != 25 || s.Leaves != g.LeafCount() {
		t.Errorf("stats = %+v", s)
	}
	if s.MinDepth > s.MaxDepth || s.AvgDepth <= 0 {
		t.Errorf("depth stats = %+v", s)
	}
	if s.StoredItems != 500 {
		t.Errorf("StoredItems = %d, want 500", s.StoredItems)
	}
}

func TestLoadBalancedAcrossPeers(t *testing.T) {
	// Construction balances storage: with uniform fixed-width keys no peer
	// should hold a wildly disproportionate share.
	g, _ := buildTestGrid(t, 32, 3200, DefaultConfig())
	var loads []int
	for _, p := range g.snapshot().peerList() {
		loads = append(loads, p.StoreLen())
	}
	sort.Ints(loads)
	if loads[len(loads)-1] > 12*100 { // fair share is 100
		t.Errorf("max load %d exceeds 12x fair share", loads[len(loads)-1])
	}
}

func TestMultiLookupEmptyAndUnknownKeys(t *testing.T) {
	g, _ := buildTestGrid(t, 20, 300, DefaultConfig())
	res, _, err := g.MultiLookupAt(nil, 0, nil, 0)
	if err != nil || res != nil {
		t.Errorf("empty MultiLookup = %v, %v", res, err)
	}
	res, _, err = g.MultiLookupAt(nil, 0, []keys.Key{keys.StringKey("knope1"), keys.StringKey("knope2")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("unknown keys returned %v", res)
	}
}

func TestRandomPeerInRange(t *testing.T) {
	g, _ := buildTestGrid(t, 10, 50, DefaultConfig())
	for i := 0; i < 100; i++ {
		id := g.RandomPeer()
		if id < 0 || int(id) >= 10 {
			t.Fatalf("RandomPeer = %d", id)
		}
	}
}

func TestPeerOutOfRange(t *testing.T) {
	g, _ := buildTestGrid(t, 5, 10, DefaultConfig())
	if _, err := g.Peer(99); err == nil {
		t.Error("Peer(99) succeeded")
	}
}

func TestResponsible(t *testing.T) {
	p := &Peer{path: keys.FromBits("0101")}
	if !p.Responsible(keys.FromBits("01011")) {
		t.Error("extension of path not responsible")
	}
	if !p.Responsible(keys.FromBits("01")) {
		t.Error("prefix of path not responsible")
	}
	if p.Responsible(keys.FromBits("0100")) {
		t.Error("divergent key responsible")
	}
}
