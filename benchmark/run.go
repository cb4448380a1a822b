package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// result is what one op produced: its answer's fingerprint, its wall latency
// and the cost its own fresh tally counted.
type result struct {
	fp    uint64
	lat   time.Duration
	tally metrics.Tally
	err   error
}

// round is one pass of every client over its share of the round's ops.
type round struct {
	wall    time.Duration
	results []result
	use     usage // what the process used during the round
}

func (r round) opsPerSecond() float64 { return float64(len(r.results)) / r.wall.Seconds() }

// opLatenciesMS returns, for every op position of a round, the median over
// the rounds of that op's wall latency. Every round issues the same ops in
// the same order against the same state, so the median drops the rounds in
// which a neighbour's burst on the shared box hit that op; percentiles over
// these per-op medians are the latency metrics.
func opLatenciesMS(timed []round) []float64 {
	out := make([]float64, len(timed[0].results))
	across := make([]float64, len(timed))
	for i := range out {
		for r, rd := range timed {
			across[r] = float64(rd.results[i].lat) / float64(time.Millisecond)
		}
		out[i] = median(across)
	}
	return out
}

// harness drives one engine through a workload's public entry points.
type harness struct {
	w   *workload
	eng *core.Engine
	tr  *tracer // nil outside the traced round
}

// exec issues one op from outside the engine, exactly as a caller of the
// library would, and fingerprints the answer.
func (h *harness) exec(i int, o *op, t *metrics.Tally) (uint64, error) {
	sp := h.tr.begin(opKindNames[o.kind], i, -1)
	defer h.tr.end(sp)
	store := h.eng.Store()
	switch o.kind {
	case opSimilar:
		ms, err := store.Similar(t, h.liveFrom(o.from), o.text, o.attr, o.d, ops.SimilarOptions{})
		return fingerprintMatches(ms), err
	case opQuery:
		res, err := h.eng.QueryFrom(h.liveFrom(o.from), t, o.text)
		if err != nil {
			return 0, err
		}
		return fingerprintRows(res.Rows), nil
	case opInsert:
		return 0, store.InsertTuple(t, h.liveFrom(o.from), triples.Tuple{OID: o.oid,
			Fields: []triples.Field{{Name: o.attr, Val: triples.String(o.text)}}})
	case opDelete:
		return 0, store.DeleteTriple(t, h.liveFrom(o.from),
			triples.Triple{OID: o.oid, Attr: o.attr, Val: triples.String(o.text)})
	case opJoin:
		_, cost, err := h.eng.Join()
		t.AddTally(cost)
		return 0, err
	case opLeave:
		err := h.eng.Leave(h.liveFrom(o.from))
		if errors.Is(err, pgrid.ErrSoleOwner) {
			err = nil // a refused leave is a no-op of the workload, not a failure
		}
		h.eng.RefreshRefs()
		return 0, err
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// liveFrom redraws an initiator past tombstones: peers that left keep their
// id, and the next live id takes their ops.
func (h *harness) liveFrom(id simnet.NodeID) simnet.NodeID {
	grid := h.eng.Grid()
	for n := grid.PeerCount(); n > 0; n-- {
		if _, err := grid.Peer(id); err == nil {
			return id
		}
		id = simnet.NodeID((int(id) + 1) % grid.PeerCount())
	}
	return id
}

// runRound issues ops in a closed loop: client c takes ops c, c+clients, ...
// and sends its next op when the one before has answered. On the actor
// executor the clients are DES clients on the engine's one virtual timeline
// (Engine.Concurrent); on the direct executor they are goroutines.
func (h *harness) runRound(sched []op) round {
	n := len(sched) * h.w.repeat
	rd := round{results: make([]result, n)}
	client := func(c int) {
		for i := c; i < n; i += h.w.clients {
			o := &sched[i%len(sched)]
			res := &rd.results[i]
			start := time.Now()
			res.fp, res.err = h.exec(i, o, &res.tally)
			res.lat = time.Since(start)
		}
	}
	start := time.Now()
	switch {
	case h.w.clients == 1:
		client(0)
	case h.eng.Runtime() != nil:
		h.eng.Concurrent(h.w.clients, client)
	default:
		var wg sync.WaitGroup
		for c := 0; c < h.w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c)
			}()
		}
		wg.Wait()
	}
	rd.wall = time.Since(start)
	return rd
}

// usage is the process-wide resource reading taken around every timed round.
type usage struct {
	cpu    time.Duration // user+sys, background GC included
	alloc  uint64        // MemStats.TotalAlloc
	allocs uint64        // MemStats.Mallocs
	gcs    uint32
	gcCPU  float64 // seconds, /cpu/classes/gc/total
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		allocs: ms.Mallocs,
		gcs:    ms.NumGC,
		gcCPU:  gcCPUSeconds(),
	}
}

func (u usage) sub(o usage) usage {
	return usage{u.cpu - o.cpu, u.alloc - o.alloc, u.allocs - o.allocs, u.gcs - o.gcs, u.gcCPU - o.gcCPU}
}

func (u usage) add(o usage) usage {
	return usage{u.cpu + o.cpu, u.alloc + o.alloc, u.allocs + o.allocs, u.gcs + o.gcs, u.gcCPU + o.gcCPU}
}

// timedRound runs one round with a forced collection before it, outside the
// timing, and records what the process used during it.
func (h *harness) timedRound(sched []op) round {
	runtime.GC()
	before := readUsage()
	rd := h.runRound(sched)
	rd.use = readUsage().sub(before)
	return rd
}

// liveHeapMiB is HeapAlloc after two forced collections with the engine
// still referenced: the loaded state plus anything the run leaked.
func liveHeapMiB(eng *core.Engine) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(eng)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setup is one timed set-up: dataset generation, core.Open and the first
// warmOps ops of the schedule (so lazily built state is paid for here).
type setup struct {
	eng   *core.Engine
	data  []triples.Tuple
	total time.Duration
	open  time.Duration
	use   usage   // around core.Open alone
	heap  float64 // live heap after the set-up, MiB; measured for the traced run only
}

// warmOps is how many ops of the schedule each set-up issues.
const warmOps = 20

// warmUpOps is how many ops of the schedule the untimed warm-up before the
// timed rounds issues: enough to fill the scratch pools, the attribute-entry
// cache and both query caches (a write empties those every writeStride ops
// anyway), and a whole number of live_zipf_rw's insert/delete and join/leave
// pairs, so the timed rounds start from the loaded state.
const warmUpOps = 2 * memberStride

func (w *workload) setUp(sched []op, measureHeap bool) (setup, error) {
	runtime.GC()
	start := time.Now()
	data := w.data()
	before := readUsage()
	openStart := time.Now()
	eng, err := core.Open(data, w.config())
	if err != nil {
		return setup{}, fmt.Errorf("%s: core.Open: %w", w.name, err)
	}
	s := setup{eng: eng, data: data, open: time.Since(openStart), use: readUsage().sub(before)}
	h := &harness{w: w, eng: eng}
	for i := 0; i < warmOps && i < len(sched); i++ {
		var t metrics.Tally
		if _, err := h.exec(i, &sched[i], &t); err != nil {
			return setup{}, fmt.Errorf("%s: warm-up op %d (%s): %w", w.name, i, sched[i], err)
		}
	}
	s.total = time.Since(start)
	if measureHeap {
		s.heap = liveHeapMiB(eng)
	}
	return s, nil
}

// endToEnd computes the gated end-to-end metrics from the timed rounds.
func endToEnd(setups []float64, timed []round, liveHeap float64) map[string]float64 {
	var nOps int
	var msgs, bytes, hops float64
	var vlat []float64
	for _, rd := range timed {
		nOps += len(rd.results)
		for _, res := range rd.results {
			msgs += float64(res.tally.Messages)
			bytes += float64(res.tally.Bytes)
			hops += float64(res.tally.Hops)
			vlat = append(vlat, float64(res.tally.Latency)/1000)
		}
	}
	n := float64(nOps)
	return map[string]float64{
		"setup_s":   median(setups),
		"ops_per_s": medianOfRounds(timed, round.opsPerSecond),
		"alloc_kb_per_op": medianOfRounds(timed, func(r round) float64 {
			return float64(r.use.alloc) / 1024 / float64(len(r.results))
		}),
		"live_heap_mib":  liveHeap,
		"msgs_per_op":    msgs / n,
		"wire_kb_per_op": bytes / 1024 / n,
		"hops_per_op":    hops / n,
		"vlat_p50_ms":    percentile(vlat, 0.50),
		"vlat_p95_ms":    percentile(vlat, 0.95),
	}
}

// wallDetail computes the three wall-clock numbers that are printed with
// every run but not gated (see README: they moved by up to 35 % between
// same-code runs on the shared box): the p50 and p95 of the per-op latency
// medians, and process CPU per op as the median of the rounds.
func wallDetail(timed []round) (latP50, latP95, cpuMS float64) {
	lat := opLatenciesMS(timed)
	cpuMS = medianOfRounds(timed, func(r round) float64 {
		return float64(r.use.cpu) / float64(time.Millisecond) / float64(len(r.results))
	})
	return percentile(lat, 0.50), percentile(lat, 0.95), cpuMS
}
