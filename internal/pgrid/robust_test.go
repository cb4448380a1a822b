package pgrid

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// lossyGrid builds a grid, installs a fault plan on its network, and enables
// the retry policy.
func lossyGrid(t *testing.T, nPeers, nItems int, plan *simnet.FaultPlan, mut func(*Config)) (*Grid, *simnet.Network) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Replication = 2
	cfg.RefsPerLevel = 3
	cfg.Retry = RetryConfig{Enabled: true}
	if mut != nil {
		mut(&cfg)
	}
	g, net := buildTestGrid(t, nPeers, nItems, cfg)
	net.SetFaults(plan)
	return g, net
}

// TestSendRetransThroughLossBurst pins the retransmission schedule: with a
// total-loss window over [0,50) and base backoff 20, attempts depart at 0,
// 20 and 60 — the third clears the burst and delivers.
func TestSendRetransThroughLossBurst(t *testing.T) {
	g, net := lossyGrid(t, 8, 100, nil, func(c *Config) {
		c.Retry.Backoff = 20
	})
	net.SetFaults(&simnet.FaultPlan{
		Seed:    3,
		Windows: []simnet.FaultWindow{{Start: 0, End: 50, Rate: 1}},
	})
	var tally metrics.Tally
	arrive, err := g.sendRetrans(&tally, 0, 1,
		func() simnet.Message { return lookupMsg{key: testKey(0)} }, 0)
	if err != nil {
		t.Fatalf("sendRetrans: %v", err)
	}
	if arrive != 60 {
		t.Errorf("delivered at %d, want 60 (departs 0, 20, 60)", arrive)
	}
	if tally.Retries != 2 {
		t.Errorf("tally.Retries = %d, want 2", tally.Retries)
	}
	if s := g.RobustStats(); s.Retries != 2 {
		t.Errorf("RobustStats.Retries = %d, want 2", s.Retries)
	}
	// All three attempts departed, so all three are accounted as messages.
	if tally.Messages != 3 {
		t.Errorf("tally.Messages = %d, want 3", tally.Messages)
	}
}

// TestSendFailoverToReplica pins replica failover: a send to a crashed
// partition member is redirected to a live structural replica of the same
// partition, which is routing-equivalent by construction.
func TestSendFailoverToReplica(t *testing.T) {
	g, net := lossyGrid(t, 16, 200, nil, nil)
	v := g.snapshot()
	// Find a partition with at least two members and crash the first.
	var down, alt simnet.NodeID
	found := false
	for _, l := range v.leafList() {
		if len(l.peers) >= 2 {
			down, alt, found = l.peers[0], l.peers[1], true
			break
		}
	}
	if !found {
		t.Fatal("no replicated partition despite Replication=2")
	}
	net.SetDown(down, true)
	var tally metrics.Tally
	reached, _, err := g.sendFailover(v, &tally, alt+1, down,
		func() simnet.Message { return lookupMsg{key: testKey(0)} }, 0)
	if err != nil {
		t.Fatalf("sendFailover: %v", err)
	}
	if reached == down {
		t.Fatalf("reached the crashed peer %d", down)
	}
	if p, _ := v.peer(reached); p == nil || !p.path.Equal(mustPeer(t, v, down).path) {
		t.Errorf("failover target %d is not a replica of %d", reached, down)
	}
	if tally.Failovers == 0 || g.RobustStats().Failovers == 0 {
		t.Errorf("failover not counted: tally=%d stats=%d", tally.Failovers, g.RobustStats().Failovers)
	}
	// With the policy disabled the same send surfaces the raw error.
	g.cfg.Retry.Enabled = false
	if _, _, err := g.sendFailover(v, &tally, alt+1, down,
		func() simnet.Message { return lookupMsg{key: testKey(0)} }, 0); !errors.Is(err, simnet.ErrNodeDown) {
		t.Errorf("disabled policy error = %v, want ErrNodeDown", err)
	}
}

func mustPeer(t *testing.T, v *view, id simnet.NodeID) *Peer {
	t.Helper()
	p, err := v.peer(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLossyLookupsRecoverWithRetry runs every lookup through a steadily lossy
// fabric on both the chained and the actor executor: with the retry policy
// on, every key is still found and retransmissions appear in the counters.
func TestLossyLookupsRecoverWithRetry(t *testing.T) {
	const nItems = 300
	for _, mode := range []ExecMode{ExecChain, ExecActor} {
		g, _ := lossyGrid(t, 24, nItems, &simnet.FaultPlan{DropRate: 0.05, Seed: 9},
			func(c *Config) { c.Exec = mode })
		found := 0
		for i := 0; i < nItems; i++ {
			var tally metrics.Tally
			res, err := g.Lookup(&tally, g.RandomPeer(), testKey(i))
			if err != nil {
				t.Fatalf("%v: Lookup(%d): %v", mode, i, err)
			}
			if len(res) == 1 {
				found++
			}
		}
		s := g.RobustStats()
		if found < nItems*99/100 {
			t.Errorf("%v: found %d/%d keys at 5%% loss (stats %+v)", mode, found, nItems, s)
		}
		if s.Retries == 0 {
			t.Errorf("%v: no retransmissions at 5%% loss", mode)
		}
	}
}

// TestDegradedReadsKeepPartialResults: when the retry budget cannot beat the
// loss (a permanent total-loss window), reads degrade — nil error, empty
// results, unanswered probes tallied — instead of failing, on both executors
// and for routed lookups and range queries alike. With the policy off, the
// same queries surface errors.
func TestDegradedReadsKeepPartialResults(t *testing.T) {
	plan := &simnet.FaultPlan{DropRate: 1, Seed: 1}
	reads := []struct {
		name string
		read func(g *Grid, tally *metrics.Tally, i int) error
	}{
		{"Lookup", func(g *Grid, tally *metrics.Tally, i int) error {
			_, err := g.Lookup(tally, g.RandomPeer(), testKey(i))
			return err
		}},
		{"RangeQuery", func(g *Grid, tally *metrics.Tally, i int) error {
			_, err := g.RangeQuery(tally, g.RandomPeer(), keys.Interval{Lo: testKey(i), Hi: testKey(i + 20)}, RangeOptions{})
			return err
		}},
	}
	for _, mode := range []ExecMode{ExecChain, ExecActor} {
		for _, r := range reads {
			name, read := r.name, r.read
			g, _ := lossyGrid(t, 16, 200, plan, func(c *Config) {
				c.Exec = mode
				c.Retry.MaxAttempts = 2
				c.Retry.Backoff = 1
			})
			var tally metrics.Tally
			for i := 0; i < 50; i++ {
				if err := read(g, &tally, i); err != nil {
					t.Fatalf("%v: degraded %s(%d) surfaced error: %v", mode, name, i, err)
				}
			}
			if tally.Unanswered == 0 || tally.UnansweredCount() == 0 || g.RobustStats().Unanswered == 0 {
				t.Errorf("%v: total loss produced no unanswered %s probes (tally=%d)", mode, name, tally.Unanswered)
			}

			// Same fabric, policy off: errors must surface.
			g2, _ := lossyGrid(t, 16, 200, plan, func(c *Config) { c.Exec = mode; c.Retry = RetryConfig{} })
			sawErr := false
			for i := 0; i < 50 && !sawErr; i++ {
				var tl metrics.Tally
				sawErr = read(g2, &tl, i) != nil
			}
			if !sawErr {
				t.Errorf("%v: total loss with the policy disabled surfaced no %s error", mode, name)
			}
		}
	}
}

// TestFaultFreeRunsUnchangedByRetryConfig: on a lossless fabric the retry
// policy must be invisible — results, hops, messages and latencies are
// byte-identical with and without it, the cross-executor oracle's guarantee.
func TestFaultFreeRunsUnchangedByRetryConfig(t *testing.T) {
	run := func(mut func(*Config)) string {
		cfg := DefaultConfig()
		cfg.Replication = 2
		cfg.RefsPerLevel = 3
		if mut != nil {
			mut(&cfg)
		}
		g, _ := buildTestGrid(t, 24, 300, cfg)
		out := ""
		for i := 0; i < 60; i++ {
			var tally metrics.Tally
			res, err := g.Lookup(&tally, simnet.NodeID(i%24), testKey(i*5))
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%d:%s:%s\n", i, oidsOf(res), tally.String())
		}
		return out
	}
	base := run(nil)
	withRetry := run(func(c *Config) { c.Retry = RetryConfig{Enabled: true} })
	if base != withRetry {
		t.Error("enabling the retry policy changed fault-free results or costs")
	}
	s := func() RobustStats { g, _ := buildTestGrid(t, 8, 50, DefaultConfig()); return g.RobustStats() }()
	if s != (RobustStats{}) {
		t.Errorf("fresh grid has nonzero robustness counters: %+v", s)
	}
}

// TestWriteFencingOracle is the acceptance oracle of the write fence:
// inserts race 120 Join/Leave membership moves on both executors, and
// afterwards every inserted posting exists exactly once at every member of
// the partition currently responsible for its key — zero lost, zero
// duplicated, zero stranded on non-members.
func TestWriteFencingOracle(t *testing.T) {
	const (
		nPeers  = 24
		nItems  = 200
		inserts = 150
		moves   = 120
	)
	for _, mode := range []string{"direct", "actor"} {
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Replication = 2
			cfg.RefsPerLevel = 3
			if mode == "actor" {
				cfg.Exec = ExecActor
			}
			net := simnet.New(nPeers)
			g := buildSeqGrid(t, net, nPeers, nItems, cfg)

			// Churner: alternate joins and leaves on its own goroutine while
			// the main goroutine streams inserts of fresh keys.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var tally metrics.Tally
				for i := 0; i < moves; i++ {
					if i%2 == 0 {
						if _, err := g.Join(&tally); err != nil {
							t.Errorf("Join: %v", err)
							return
						}
						continue
					}
					// Leave any peer whose partition keeps a member.
					v := g.snapshot()
					for _, l := range v.leafList() {
						if len(l.peers) > 1 {
							if err := g.Leave(&tally, l.peers[0]); err != nil {
								t.Errorf("Leave: %v", err)
							}
							break
						}
					}
				}
			}()
			for i := 0; i < inserts; i++ {
				var tally metrics.Tally
				k := testKey(nItems + i)
				// The churner's Leave may land between drawing the initiator
				// and the insert's epoch snapshot; the insert then fails at its
				// first step with ErrDeparted. Only that case redraws, at most
				// 3 times.
				for attempt := 1; ; attempt++ {
					from := g.RandomPeer()
					err := g.Insert(&tally, from, k, testPosting(nItems+i))
					if err == nil {
						break
					}
					if _, perr := g.Peer(from); attempt <= 3 && errors.Is(err, ErrDeparted) && errors.Is(perr, ErrDeparted) {
						continue
					}
					t.Fatalf("Insert(%d) from %d: %v", i, from, err)
				}
			}
			wg.Wait()

			// Oracle: in the final epoch, each inserted posting lives exactly
			// once in every member of its key's partition and nowhere else.
			v := g.snapshot()
			for i := 0; i < inserts; i++ {
				k := testKey(nItems + i)
				oid := testPosting(nItems + i).Triple.OID
				li := v.leafForHashed(g.h.hash(k))
				if li < 0 {
					t.Fatalf("key %d has no responsible partition", i)
				}
				member := make(map[simnet.NodeID]bool)
				for _, id := range v.leaves.at(li).peers {
					member[id] = true
				}
				for _, p := range v.peerList() {
					if p == nil {
						continue
					}
					n := countOID(p, k, oid)
					switch {
					case member[p.id] && n != 1:
						t.Fatalf("%s: key %d held %d times by partition member %d, want exactly 1",
							mode, i, n, p.id)
					case !member[p.id] && n != 0:
						t.Fatalf("%s: key %d stranded %d times on non-member %d",
							mode, i, n, p.id)
					}
				}
			}
		})
	}
}

// TestInsertFromDepartedPeer pins the error an insert initiated by a peer
// that has left the overlay returns, on both executors: ErrDeparted, with
// nothing stored.
func TestInsertFromDepartedPeer(t *testing.T) {
	for _, mode := range []string{"direct", "actor"} {
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Replication = 2
			if mode == "actor" {
				cfg.Exec = ExecActor
			}
			g := buildSeqGrid(t, simnet.New(16), 16, 100, cfg)
			var p simnet.NodeID = -1
			for _, l := range g.snapshot().leafList() {
				if len(l.peers) > 1 {
					p = l.peers[0]
					break
				}
			}
			if p < 0 {
				t.Fatal("fixture: no partition with two members")
			}
			if err := g.Leave(nil, p); err != nil {
				t.Fatal(err)
			}
			k := testKey(500)
			if err := g.Insert(nil, p, k, testPosting(500)); !errors.Is(err, ErrDeparted) {
				t.Fatalf("Insert from departed peer %d = %v, want ErrDeparted", p, err)
			}
			for _, q := range g.snapshot().peerList() {
				if q != nil && countOID(q, k, testPosting(500).Triple.OID) != 0 {
					t.Fatalf("peer %d stored the rejected insert", q.id)
				}
			}
		})
	}
}

// countOID counts how many stored postings under key k carry the given OID.
func countOID(p *Peer, k keys.Key, oid string) int {
	n := 0
	for _, got := range p.LocalPrefix(k) {
		if got.Triple.OID == oid {
			n++
		}
	}
	return n
}

// TestFencedWriteRedirectsAcrossEpochMove pins the fence mechanics directly:
// a write whose routing snapshot predates a partition split is redirected to
// the current owners and counted.
func TestFencedWriteRedirectsAcrossEpochMove(t *testing.T) {
	cfg := DefaultConfig() // Replication 1: joins split partitions
	g, _ := buildTestGrid(t, 8, 200, cfg)
	v := g.snapshot() // stale snapshot held across the move

	k := testKey(500)
	hk := g.h.hash(k)
	li := v.leafForHashed(hk)
	owner := mustPeer(t, v, v.leaves.at(li).peers[0])

	// Churn until the epoch moves (first Join splits some partition).
	var tally metrics.Tally
	for v.epoch == g.snapshot().epoch {
		if _, err := g.Join(&tally); err != nil {
			t.Fatal(err)
		}
	}

	g.applyOwnerWrite(v, owner, hk, func(q *Peer) bool { q.localPut(k, testPosting(500)); return true })
	g.endWrite()

	cur := g.snapshot()
	cli := cur.leafForHashed(hk)
	for _, id := range cur.leaves.at(cli).peers {
		if got := countOID(cur.peers.at(id), k, testPosting(500).Triple.OID); got != 1 {
			t.Errorf("current member %d holds %d copies, want 1", id, got)
		}
	}
}
