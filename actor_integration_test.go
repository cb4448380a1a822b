package repro

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/simnet"
)

// execEngines builds one engine per execution mode over identical data,
// seeds and latency model.
func execEngines(t testing.TB, peers int, service time.Duration) (map[core.RuntimeMode]*core.Engine, []string) {
	t.Helper()
	corpus := dataset.BibleWords(500, 17)
	tuples := dataset.StringTuples("word", "o", corpus)
	engines := make(map[core.RuntimeMode]*core.Engine)
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		eng, err := core.Open(tuples, core.Config{
			Peers:   peers,
			Runtime: mode,
			Latency: asyncnet.DefaultLatency(5),
			Service: service,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[mode] = eng
	}
	return engines, corpus
}

// TestActorMatchesOtherExecutorsEndToEnd is the engine-level half of the
// cross-executor oracle: similarity queries and full VQL queries return
// identical results with identical message, byte and hop counts under
// direct and actor execution, and the actor timeline never exceeds the
// serial one.
func TestActorMatchesOtherExecutorsEndToEnd(t *testing.T) {
	engines, corpus := execEngines(t, 128, 0)
	direct, actor := engines[core.RuntimeDirect], engines[core.RuntimeActor]
	rng := rand.New(rand.NewSource(9))

	for trial := 0; trial < 6; trial++ {
		needle := corpus[rng.Intn(len(corpus))]
		from := simnet.NodeID(rng.Intn(128))
		d := 1 + rng.Intn(2)

		var base metrics.Tally
		want, err := direct.Store().Similar(&base, from, needle, "word", d, ops.SimilarOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var tally metrics.Tally
		got, err := actor.Store().Similar(&tally, from, needle, "word", d, ops.SimilarOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("similar(%q,%d) diverges from direct", needle, d)
		}
		b, g := base.Snapshot(), tally.Snapshot()
		if g.Messages != b.Messages || g.Bytes != b.Bytes || g.Hops != b.Hops {
			t.Fatalf("similar(%q,%d) cost %v, direct %v", needle, d, g, b)
		}
		if g.Latency > b.Latency {
			t.Fatalf("actor latency %d exceeds serial %d", g.Latency, b.Latency)
		}
		if g.Queue != 0 {
			t.Fatalf("queueing %dµs with zero service time", g.Queue)
		}
	}

	// Full VQL pipeline (parse, plan, execute) from a fixed initiator.
	const q = `SELECT ?n WHERE { (?o,word,?n) FILTER (dist(?n,'lord') < 2) }`
	wantRes, err := direct.QueryFrom(11, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := actor.QueryFrom(11, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(wantRes.Rows) {
		t.Fatal("actor VQL rows diverge from direct")
	}
}

// TestAsyncMatchesSyncEndToEnd pins the equivalence of the synchronous
// (direct) and asynchronous (actor, zero service time) executors over
// identical overlays: every operator returns identical results with
// identical message and byte counts. They differ only in how virtual time
// composes — serial sum vs the critical path of the logically parallel
// branches — so actor latency never exceeds direct and beats it on some
// similarity query.
func TestAsyncMatchesSyncEndToEnd(t *testing.T) {
	engines, corpus := execEngines(t, 192, 0)
	syncEng, asyncEng := engines[core.RuntimeDirect], engines[core.RuntimeActor]
	rng := rand.New(rand.NewSource(9))
	sawFasterAsync := false
	for trial := 0; trial < 8; trial++ {
		needle := corpus[rng.Intn(len(corpus))]
		from := simnet.NodeID(rng.Intn(192))
		d := 1 + rng.Intn(2)

		var st, at metrics.Tally
		sms, err := syncEng.Store().Similar(&st, from, needle, "word", d, ops.SimilarOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ams, err := asyncEng.Store().Similar(&at, from, needle, "word", d, ops.SimilarOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sms) != fmt.Sprint(ams) {
			t.Fatalf("similar(%q,%d) results diverge between executors", needle, d)
		}
		if st.Messages != at.Messages || st.Bytes != at.Bytes {
			t.Fatalf("similar(%q,%d): direct cost %v != actor cost %v", needle, d, st, at)
		}
		if at.Latency > st.Latency {
			t.Fatalf("actor latency %d exceeds direct %d", at.Latency, st.Latency)
		}
		if at.Latency < st.Latency {
			sawFasterAsync = true
		}
	}
	if !sawFasterAsync {
		t.Error("actor critical path never beat serial latency over 8 similarity queries")
	}

	// Joins and string top-N must agree too.
	var st, at metrics.Tally
	sj, err := syncEng.Store().SimJoin(&st, 3, "word", "word", 1, ops.JoinOptions{LeftLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := asyncEng.Store().SimJoin(&at, 3, "word", "word", 1, ops.JoinOptions{LeftLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sj) != fmt.Sprint(aj) || st.Messages != at.Messages || st.Bytes != at.Bytes {
		t.Fatalf("join diverges: %d vs %d pairs, %v vs %v", len(sj), len(aj), st, at)
	}
	stop, err := syncEng.Store().TopNString(nil, 7, "word", corpus[0], 5, 3, ops.TopNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	atop, err := asyncEng.Store().TopNString(nil, 7, "word", corpus[0], 5, 3, ops.TopNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(stop) != fmt.Sprint(atop) {
		t.Fatal("top-N string results diverge between executors")
	}
}

// TestActorNumericTopNMatchesDirect covers the numeric rank-aware operator
// (Algorithm 4), whose windowed range probes are logically parallel
// branches: identical results and messages on both executors, and an actor
// latency that never exceeds the serial one.
func TestActorNumericTopNMatchesDirect(t *testing.T) {
	cars := dataset.Cars(300, 30, 8)
	engines := make(map[core.RuntimeMode]*core.Engine)
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		eng, err := core.Open(cars, core.Config{Peers: 96, Runtime: mode, Latency: asyncnet.DefaultLatency(2)})
		if err != nil {
			t.Fatal(err)
		}
		engines[mode] = eng
	}
	for _, rank := range []ops.Rank{ops.RankMin, ops.RankMax, ops.RankNN} {
		var dt, at metrics.Tally
		dres, err := engines[core.RuntimeDirect].Store().TopN(&dt, 5, "hp", 10, rank, 150)
		if err != nil {
			t.Fatal(err)
		}
		ares, err := engines[core.RuntimeActor].Store().TopN(&at, 5, "hp", 10, rank, 150)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(dres) != fmt.Sprint(ares) {
			t.Fatalf("%v: results diverge between executors", rank)
		}
		if dt.Messages != at.Messages {
			t.Fatalf("%v: direct %v != actor %v", rank, dt, at)
		}
		if at.Latency > dt.Latency {
			t.Fatalf("%v: actor latency %d exceeds serial %d", rank, at.Latency, dt.Latency)
		}
	}
}

// batchResult is the outcome of one query of a queryBatchFrom: the
// materialized result and the query's own cost slice (messages and bytes are
// exact; Latency is the query's duration on its client's timeline, including
// any cross-client queueing; Queue is its summed mailbox waiting time).
type batchResult struct {
	Result *plan.Result
	Tally  metrics.Tally
	Err    error
}

// queryBatchFrom executes a batch of VQL queries across `clients` closed-loop
// concurrent clients with one initiating peer per query: client c runs
// queries c, c+clients, c+2*clients, …, each starting on its client's
// timeline as soon as the previous one completed. It runs the identical
// schedule — same queries, same initiators — sequentially and concurrently,
// or across execution modes, so costs compare exactly.
func queryBatchFrom(e *core.Engine, queries []string, froms []simnet.NodeID, clients int) []batchResult {
	out := make([]batchResult, len(queries))
	e.Concurrent(clients, func(client int) {
		// One chained tally per client: each query starts at the previous
		// one's completion (closed loop); per-query slices are snapshot
		// diffs, the convention metrics.Tally.Sub documents.
		var ct metrics.Tally
		for qi := client; qi < len(queries); qi += clients {
			before := ct.Snapshot()
			res, err := e.QueryFrom(froms[qi], &ct, queries[qi])
			out[qi] = batchResult{Result: res, Tally: ct.Snapshot().Sub(before), Err: err}
		}
	})
	return out
}

// TestQueryBatchConcurrentClientsOracle pins the engine-level half of the
// asynchronous-issue oracle: a batch of VQL queries executed by concurrent
// closed-loop clients on one shared virtual timeline returns identical rows
// and identical message/byte costs to sequential issue on every execution
// mode — and on the actor engine the concurrent run reports strictly
// positive cross-operation queueing while per-query latencies never fall
// below the uncontended sequential ones.
func TestQueryBatchConcurrentClientsOracle(t *testing.T) {
	engines, corpus := execEngines(t, 64, 2*time.Millisecond)
	queries := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		queries = append(queries,
			fmt.Sprintf(`SELECT ?n WHERE { (?o,word,?n) FILTER (dist(?n,'%s') < 2) }`, corpus[i*7]))
	}

	// One fixed initiator schedule shared by every run and mode.
	froms := make([]simnet.NodeID, len(queries))
	for i := range froms {
		froms[i] = simnet.NodeID((i * 13) % 64)
	}

	// Sequential baseline on the actor engine (clients=1).
	actor := engines[core.RuntimeActor]
	seq := queryBatchFrom(actor, queries, froms, 1)
	conc := queryBatchFrom(actor, queries, froms, 4)
	var seqQueue, concQueue int64
	for i := range queries {
		if seq[i].Err != nil || conc[i].Err != nil {
			t.Fatalf("query %d: seq err %v, conc err %v", i, seq[i].Err, conc[i].Err)
		}
		if fmt.Sprint(conc[i].Result.Rows) != fmt.Sprint(seq[i].Result.Rows) {
			t.Errorf("query %d: concurrent rows diverge from sequential", i)
		}
		if conc[i].Tally.Messages != seq[i].Tally.Messages || conc[i].Tally.Bytes != seq[i].Tally.Bytes {
			t.Errorf("query %d: concurrent cost %d msgs/%d bytes, sequential %d/%d", i,
				conc[i].Tally.Messages, conc[i].Tally.Bytes, seq[i].Tally.Messages, seq[i].Tally.Bytes)
		}
		if conc[i].Tally.Latency < seq[i].Tally.Latency {
			t.Errorf("query %d: concurrent latency %dµs below sequential %dµs", i,
				conc[i].Tally.Latency, seq[i].Tally.Latency)
		}
		seqQueue += seq[i].Tally.Queue
		concQueue += conc[i].Tally.Queue
	}
	if concQueue <= 0 {
		t.Error("concurrent batch reports no queueing despite a 2ms service time")
	}
	if concQueue < seqQueue {
		t.Errorf("concurrent batch queueing %dµs below sequential %dµs", concQueue, seqQueue)
	}

	// The direct engine answers the identical schedule with identical rows
	// and message costs (cross-executor oracle), and zero queueing.
	direct := engines[core.RuntimeDirect]
	dconc := queryBatchFrom(direct, queries, froms, 4)
	for i := range queries {
		if dconc[i].Err != nil {
			t.Fatalf("direct query %d: %v", i, dconc[i].Err)
		}
		if fmt.Sprint(dconc[i].Result.Rows) != fmt.Sprint(seq[i].Result.Rows) {
			t.Errorf("direct query %d: rows diverge from the actor engine", i)
		}
		if dconc[i].Tally.Messages != seq[i].Tally.Messages {
			t.Errorf("direct query %d: %d msgs, actor %d", i, dconc[i].Tally.Messages, seq[i].Tally.Messages)
		}
		if dconc[i].Tally.Queue != 0 {
			t.Errorf("direct query %d: %dµs queueing on a chained engine", i, dconc[i].Tally.Queue)
		}
	}
}

// TestActorEngineReportsCongestion drives a concurrent query burst against
// an actor engine with a nonzero per-peer service time: the per-query
// tallies accumulate queueing delay and the engine's runtime exposes
// per-peer load, while a direct engine over the same workload reports
// neither.
func TestActorEngineReportsCongestion(t *testing.T) {
	engines, corpus := execEngines(t, 64, 2*time.Millisecond)
	var queued = map[core.RuntimeMode]int64{}
	for _, mode := range []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor} {
		eng := engines[mode]
		var total int64
		for i := 0; i < 4; i++ {
			var tally metrics.Tally
			if _, err := eng.Store().Similar(&tally, simnet.NodeID(i), corpus[i], "word", 2,
				ops.SimilarOptions{}); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			total += tally.Snapshot().Queue
		}
		queued[mode] = total
	}
	if queued[core.RuntimeDirect] != 0 {
		t.Errorf("direct engine reports %dµs queueing", queued[core.RuntimeDirect])
	}
	if queued[core.RuntimeActor] == 0 {
		t.Error("actor engine reports no queueing despite 2ms per-message service time")
	}

	if engines[core.RuntimeDirect].Runtime() != nil {
		t.Error("direct engine exposes an actor runtime")
	}
	rt := engines[core.RuntimeActor].Runtime()
	if rt == nil {
		t.Fatal("actor engine exposes no runtime")
	}
	delivered := 0
	for _, l := range rt.AllStats() {
		delivered += l.Stats.Delivered
	}
	if delivered == 0 {
		t.Error("actor runtime processed no messages")
	}
}
