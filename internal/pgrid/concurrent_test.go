package pgrid

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// issueOp is one operation of a deterministic schedule of mixed grid
// operations; index i fully determines the operation, so the same schedule
// can run sequentially on one grid and concurrently on an identical one.
type issueOp struct {
	kind int // 0 lookup, 1 multi, 2 range
	from simnet.NodeID
	i    int
}

func issueSchedule(n, nPeers, nItems int) []issueOp {
	ops := make([]issueOp, n)
	for i := range ops {
		ops[i] = issueOp{kind: i % 3, from: simnet.NodeID((i * 5) % nPeers), i: i}
	}
	return ops
}

// runOne executes one scheduled operation synchronously on its own tally.
// It may run on a client body's goroutine, so it reports with t.Errorf.
func runOne(t *testing.T, g *Grid, op issueOp, nItems int) (string, metrics.Tally) {
	t.Helper()
	var tally metrics.Tally
	var res []triples.Posting
	var err error
	switch op.kind {
	case 0:
		res, err = g.Lookup(&tally, op.from, testKey(op.i*13%nItems))
	case 1:
		var ks []keys.Key
		for j := 0; j < 7; j++ {
			ks = append(ks, testKey((op.i*29+j*11)%nItems))
		}
		res, _, err = g.MultiLookupAt(&tally, op.from, ks, 0)
	case 2:
		lo := (op.i * 17) % (nItems - 50)
		res, err = g.RangeQuery(&tally, op.from, keys.Interval{Lo: testKey(lo), Hi: testKey(lo + 40)}, RangeOptions{})
	}
	if err != nil {
		t.Errorf("op %d (kind %d): %v", op.i, op.kind, err)
	}
	return oidsOf(res), tally.Snapshot()
}

// checkConcurrentMatchesSequential is the concurrent-issue oracle: the
// schedule issued through Grid.Concurrent closed-loop client bodies returns
// identical results, hops, messages and bytes to sequential issue.
// Contention can only add: per-operation latency is at least the sequential
// one and the total queueing at least the sequential total, strictly more
// under a nonzero service time when every operation is issued at once. At
// zero service time there is nothing to contend for, so latencies equal the
// sequential ones and nothing queues. A second identical run reproduces
// every tally exactly: concurrent issue is deterministic for a fixed seed
// (ordered spawn, gated drain).
func checkConcurrentMatchesSequential(t *testing.T, service simnet.VTime, clients int) {
	t.Helper()
	const (
		nPeers = 48
		nItems = 600
		nOps   = concOps
	)
	sched := issueSchedule(nOps, nPeers, nItems)
	mut := func(cfg *Config) { cfg.Exec = ExecActor; cfg.Service = service }
	seq := execGrids(t, nPeers, nItems, mut, asyncnet.DefaultLatency(7))["actor"]
	seqRes := make([]string, nOps)
	seqTally := make([]metrics.Tally, nOps)
	for i, op := range sched {
		seqRes[i], seqTally[i] = runOne(t, seq, op, nItems)
	}

	runConc := func() ([]string, []metrics.Tally) {
		g := execGrids(t, nPeers, nItems, mut, asyncnet.DefaultLatency(7))["actor"]
		res := make([]string, nOps)
		tallies := make([]metrics.Tally, nOps)
		g.Concurrent(clients, func(c int) {
			for i := c; i < nOps; i += clients {
				res[i], tallies[i] = runOne(t, g, sched[i], nItems)
			}
		})
		return res, tallies
	}
	gotRes, gotTally := runConc()
	var seqQueue, concQueue int64
	for i := range sched {
		got, want := gotTally[i], seqTally[i]
		if gotRes[i] != seqRes[i] {
			t.Errorf("op %d: concurrent results diverge from sequential", i)
		}
		if got.Hops != want.Hops {
			t.Errorf("op %d: hops %d, sequential %d", i, got.Hops, want.Hops)
		}
		if got.Messages != want.Messages || got.Bytes != want.Bytes {
			t.Errorf("op %d: cost %d msgs/%d bytes, sequential %d/%d",
				i, got.Messages, got.Bytes, want.Messages, want.Bytes)
		}
		if got.Latency < want.Latency {
			t.Errorf("op %d: concurrent latency %dµs below sequential %dµs (contention can only add)",
				i, got.Latency, want.Latency)
		}
		if service == 0 && got.Latency != want.Latency {
			t.Errorf("op %d: latency %dµs, want %dµs (zero service: no contention, no inflation)",
				i, got.Latency, want.Latency)
		}
		seqQueue += want.Queue
		concQueue += got.Queue
	}
	if concQueue < seqQueue {
		t.Errorf("concurrent total queue %dµs below sequential %dµs", concQueue, seqQueue)
	}
	// Strictly more queueing needs operations that meet in a mailbox. With
	// one client per operation every kickoff lands at time zero and they do;
	// six closed-loop clients spread this schedule so thinly that no two of
	// their operations reach one peer within a service time of each other,
	// and their total equals the sequential one exactly.
	if service > 0 && clients == nOps && concQueue <= seqQueue {
		t.Errorf("concurrent issue at %v service reports no cross-operation queueing beyond sequential (%dµs vs %dµs)",
			service, concQueue, seqQueue)
	}
	if service == 0 && concQueue != 0 {
		t.Errorf("zero service time but %dµs queueing", concQueue)
	}

	againRes, againTally := runConc()
	for i := range sched {
		if againRes[i] != gotRes[i] || againTally[i] != gotTally[i] {
			t.Fatalf("op %d not deterministic across identical concurrent runs: %+v then %+v",
				i, gotTally[i], againTally[i])
		}
	}
}

// concOps is the length of the schedule both concurrent-issue oracles run.
const concOps = 24

// serviceTimes are the per-message service times both concurrent-issue
// oracles run at: none, where nothing can queue, and 2 ms, where operations
// issued together contend for mailboxes.
var serviceTimes = []simnet.VTime{0, simnet.VTimeOf(2 * time.Millisecond)}

// TestIssueDrainMatchesSequential issues every operation of the schedule at
// once — one client per operation, so every kickoff lands at virtual time
// zero and one drain resolves them all — and checks the concurrent-issue
// oracle.
func TestIssueDrainMatchesSequential(t *testing.T) {
	for _, service := range serviceTimes {
		service := service
		t.Run(fmt.Sprintf("service=%v", service), func(t *testing.T) {
			checkConcurrentMatchesSequential(t, service, concOps)
		})
	}
}

// TestConcurrentBodiesMatchSequential checks the concurrent-issue oracle
// for six closed-loop clients that each issue their share of the schedule
// one operation after another.
func TestConcurrentBodiesMatchSequential(t *testing.T) {
	for _, service := range serviceTimes {
		service := service
		t.Run(fmt.Sprintf("service=%v", service), func(t *testing.T) {
			checkConcurrentMatchesSequential(t, service, 6)
		})
	}
}
