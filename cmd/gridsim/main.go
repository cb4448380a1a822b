// Command gridsim builds P-Grid overlays across a sweep of network sizes,
// reports construction statistics, and runs the paper's query workload
// (top-N nearest-neighbour queries plus similarity self-joins) under either
// execution mode (-exec):
//
//   - direct, the default serial shared-memory simulator of the paper, or
//   - actor, where the operators run as message handlers on the asyncnet
//     discrete-event runtime; with -service 0 its simulated latency is the
//     critical path of the logically parallel query branches.
//
// Both modes report messages, data volume, hop counts and simulated
// per-query latency (per the -latency-dist model), so direct and actor runs
// are directly comparable. With -churn-rate, churn events are scheduled
// between query initiations on the virtual timeline of the asyncnet
// discrete-event runtime; -churn-mode selects what an event does:
//
//   - crash (default): toggle peers down/up through the failure set,
//   - membership: perform real structural churn — graceful Leave of a random
//     peer or Join of a new one — published as grid epochs while queries run.
//
// With -validate it additionally measures routing cost against the paper's
// Section 2 claim that expected search cost is ~0.5*log2(N) messages
// (experiment E2).
//
// Loading runs the sharded parallel bulk-load pipeline (-load-workers); the
// summary table reports the load wall-clock and postings/s of each build so
// sweeps show the load speedup alongside query costs.
//
// Usage:
//
//	gridsim -peers 256 -items 20000 -exec actor -latency-dist uniform:10ms-100ms
//	gridsim -peers 256 -items 20000 -churn-rate 2 -churn-mode membership
//	gridsim -peers 100,1000,10000 -items 20000 -validate -mix 0
//	gridsim -peers 1024 -items 50000 -mix 0 -load-workers 1   # serial-load baseline
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/qcache"
	"repro/internal/simnet"
)

// rawOptions holds the flag values exactly as parsed; resolve validates them
// up front — unknown enum values and conflicting combinations are rejected
// with the accepted choices listed, instead of silently falling back to a
// default behaviour mid-run. Keeping the checks on a plain struct makes every
// rule table-testable without spawning the binary.
type rawOptions struct {
	peers       string
	method      string
	exec        string
	clients     int
	churnRate   float64
	churnMode   string
	metricsAddr string
	metricsOut  string
	cache       string
	arrival     string
	rate        float64
	zipf        float64
	arrivals    int
	drop        float64
	adversity   bool
	advOut      string
}

// options is the validated, resolved form of rawOptions.
type options struct {
	peers    []int
	method   ops.Method
	mode     core.RuntimeMode
	cache    bool
	openLoop bool
}

func (r rawOptions) resolve() (options, error) {
	var o options
	var err error
	if o.peers, err = parseInts(r.peers); err != nil {
		return o, err
	}
	if o.method, err = parseMethod(r.method); err != nil {
		return o, err
	}
	if r.churnMode != "crash" && r.churnMode != "membership" {
		return o, fmt.Errorf("unknown churn mode %q (want crash or membership)", r.churnMode)
	}
	if r.churnRate < 0 {
		return o, fmt.Errorf("negative churn rate %v (want events per simulated second >= 0)", r.churnRate)
	}
	if o.mode, err = core.ParseRuntimeMode(r.exec); err != nil {
		return o, err
	}
	if r.clients < 1 {
		return o, fmt.Errorf("invalid -clients %d (want a client count >= 1)", r.clients)
	}
	if r.clients > 1 && o.mode != core.RuntimeActor {
		return o, fmt.Errorf("-clients %d needs -exec actor: only the discrete-event engine shares one virtual timeline across concurrently issued operations (direct models no cross-operation contention)", r.clients)
	}
	if r.metricsOut != "" && r.metricsAddr == "" {
		return o, errors.New("-metrics-out needs -metrics-addr: the scrape is fetched from the live endpoint")
	}
	switch r.cache {
	case "", "off":
	case "on":
		o.cache = true
	default:
		return o, fmt.Errorf("unknown cache setting %q (want on or off)", r.cache)
	}
	switch r.arrival {
	case "", "closed":
	case "poisson":
		o.openLoop = true
		if o.mode != core.RuntimeActor {
			return o, errors.New("-arrival poisson needs -exec actor: open-loop arrivals contend on the discrete-event engine's one virtual timeline (direct models no cross-operation contention)")
		}
		if r.rate <= 0 {
			return o, errors.New("-arrival poisson needs -rate: the offered arrival rate in queries per simulated second")
		}
		if r.churnRate > 0 {
			return o, errors.New("-arrival poisson conflicts with -churn-rate: the open-loop driver has no churn scheduler (use the closed-loop workload for churn studies)")
		}
		if r.clients > 1 {
			return o, errors.New("-arrival poisson conflicts with -clients: open-loop arrivals are not closed-loop clients (each arrival is its own client body)")
		}
	default:
		return o, fmt.Errorf("unknown arrival process %q (want closed or poisson)", r.arrival)
	}
	if !o.openLoop {
		if r.rate != 0 {
			return o, errors.New("-rate needs -arrival poisson")
		}
		if r.zipf != 0 {
			return o, errors.New("-zipf needs -arrival poisson")
		}
		if r.arrivals != 0 {
			return o, errors.New("-arrivals needs -arrival poisson")
		}
	}
	if r.drop < 0 || r.drop >= 1 {
		return o, fmt.Errorf("invalid -drop %g (want a loss probability in [0, 1): rate 1 partitions every link and nothing can complete)", r.drop)
	}
	if r.advOut != "" && !r.adversity {
		return o, errors.New("-adversity-out needs -adversity: it is where the sweep's JSON lands")
	}
	if r.zipf != 0 && r.zipf <= 1 {
		return o, fmt.Errorf("invalid -zipf %g (want 0 for uniform needles, or an exponent > 1)", r.zipf)
	}
	if r.arrivals < 0 {
		return o, fmt.Errorf("invalid -arrivals %d (want a query count >= 1, or 0 for the default)", r.arrivals)
	}
	return o, nil
}

func main() {
	var (
		peersFlag = flag.String("peers", "256", "comma-separated network sizes")
		items     = flag.Int("items", 20000, "corpus size used to balance and load the grid")
		lookups   = flag.Int("lookups", 500, "random lookups per size for -validate")
		seed      = flag.Int64("seed", 1, "random seed")
		validate  = flag.Bool("validate", false, "measure routing hops vs 0.5*log2(N)")

		exec = flag.String("exec", "",
			"execution mode: direct (serial simulator) or actor (operators as message handlers on the discrete-event runtime; with -service 0 latency is the critical path)")
		service = flag.Duration("service", 0,
			"per-message service time of each peer in actor mode (e.g. 500us); makes queueing observable")
		latAware = flag.Bool("latency-aware", false,
			"route via the live reference with the lowest expected link latency instead of the hashed choice")
		clients = flag.Int("clients", 1,
			"closed-loop concurrent clients issuing the query mix on one shared virtual timeline (actor mode; 1 = sequential issue)")
		loadWorkers = flag.Int("load-workers", 0,
			"bulk-load pipeline concurrency: 0 = GOMAXPROCS, 1 = serial (results are identical either way)")
		loadBudget = flag.Int64("load-budget", 0,
			"load budget in bytes: cap on extracted index entries resident at once (0 = one window holding the whole entry set; results are identical either way)")
		latDist = flag.String("latency-dist", "uniform:10ms-100ms",
			"per-link latency distribution: none, fixed:25ms, uniform:10ms-100ms, lognormal:20ms,0.5")
		bandwidth = flag.String("bandwidth", "none",
			"per-link capacity adding size/rate to every message's delay and to actor service times (e.g. 512KiB/s, 10MB/s; none = size-free messages)")
		churn = flag.Float64("churn-rate", 0,
			"churn events per simulated second, scheduled on the virtual timeline (0 = none)")
		churnMode = flag.String("churn-mode", "crash",
			"what a churn event does: crash (toggle failure flags) or membership (real Join/Leave)")
		mixes  = flag.Int("mix", 8, "query-mix initiations per size (0 = skip the workload)")
		method = flag.String("method", "qgrams", "similarity method: qgrams, qsamples, strings")

		traceOut = flag.String("trace-out", "",
			"write the message-lifecycle trace as JSONL to this file (byte-identical for a fixed seed in actor mode; a sweep leaves the last size's trace)")
		traceChrome = flag.String("trace-chrome", "",
			"write the lifecycle trace as a Chrome trace_event JSON file (open via chrome://tracing or ui.perfetto.dev)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve a Prometheus text-format /metrics endpoint on this address while the workload runs (e.g. :9090, or 127.0.0.1:0 for a free port)")
		metricsOut = flag.String("metrics-out", "",
			"write a final /metrics scrape — fetched over HTTP from the live -metrics-addr endpoint — to this file")
		cache = flag.String("cache", "off",
			"initiator-side caching: on (posting + result caches serve hot keys and repeated questions locally; a write drops only the entries it touched, membership changes drop none) or off")
		arrival = flag.String("arrival", "closed",
			"arrival process of the query workload: closed (the mix/clients loop) or poisson (open-loop arrivals at -rate on the actor engine's virtual timeline)")
		rate = flag.Float64("rate", 0,
			"offered arrival rate in queries per simulated second (with -arrival poisson)")
		zipf = flag.Float64("zipf", 0,
			"Zipf exponent of the needle popularity with -arrival poisson (0 = uniform; exponents must exceed 1)")
		arrivals = flag.Int("arrivals", 0,
			"query arrivals per open-loop run with -arrival poisson (0 = driver default)")
		drop = flag.Float64("drop", 0,
			"per-message loss probability of the fabric (0 = lossless); enables the grid's retry/failover policy and is deterministic per seed")
		adversity = flag.Bool("adversity", false,
			"run the recall-under-adversity sweep (replication x drop rate under churn) instead of the build/workload loop")
		advOut = flag.String("adversity-out", "",
			"write the adversity sweep as deterministic JSON to this file (with -adversity)")
	)
	flag.Parse()

	opt, err := rawOptions{
		peers:       *peersFlag,
		method:      *method,
		exec:        *exec,
		clients:     *clients,
		churnRate:   *churn,
		churnMode:   *churnMode,
		metricsAddr: *metricsAddr,
		metricsOut:  *metricsOut,
		cache:       *cache,
		arrival:     *arrival,
		rate:        *rate,
		zipf:        *zipf,
		arrivals:    *arrivals,
		drop:        *drop,
		adversity:   *adversity,
		advOut:      *advOut,
	}.resolve()
	if err != nil {
		fatal(err)
	}
	if *adversity {
		if err := runAdversity(*seed, *advOut); err != nil {
			fatal(err)
		}
		return
	}
	peers, m, mode := opt.peers, opt.method, opt.mode
	latency, err := asyncnet.ParseLatency(*latDist, *seed)
	if err != nil {
		fatal(err)
	}
	bwRate, err := asyncnet.ParseBandwidth(*bandwidth)
	if err != nil {
		fatal(err)
	}
	var tracer *asyncnet.Tracer
	if *traceOut != "" || *traceChrome != "" {
		tracer = asyncnet.NewTracer(0)
	}
	corpus := dataset.BibleWords(*items, *seed)
	tuples := dataset.StringTuples("word", "o", corpus)

	cacheState := "off"
	if opt.cache {
		cacheState = "on"
	}
	if opt.openLoop {
		fmt.Printf("workload: runtime=%s method=%s cache=%s arrival=poisson rate=%g/s zipf=%g (%d arrivals)\n\n",
			mode, m, cacheState, *rate, *zipf, *arrivals)
	} else if *mixes > 0 {
		lat := "none"
		if latency != nil {
			lat = latency.String()
		}
		if bwRate > 0 {
			lat += "+bw:" + asyncnet.FormatRate(bwRate)
		}
		fmt.Printf("workload: runtime=%s method=%s cache=%s latency=%s churn=%.2f/s mode=%s clients=%d (%d mix initiations)\n\n",
			mode, m, cacheState, lat, *churn, *churnMode, *clients, *mixes)
	}
	fmt.Printf("%-10s %-11s %-18s %-12s %-10s %-10s %-10s %-12s\n",
		"peers", "partitions", "depth(min/avg/max)", "refs/peer", "postings", "max/part", "load", "postings/s")
	// Build, report and (optionally) exercise one overlay at a time so a
	// sweep over large sizes never holds more than one engine in memory.
	for _, n := range peers {
		loadStart := time.Now()
		tracer.Reset() // a sweep reuses the ring; each size traces afresh
		// Memory-capped load mode: the windowed apply churns through far more
		// short-lived garbage (per-window merge rebuilds) than it keeps live,
		// and the default GC pacer grants headroom of twice the live set
		// before collecting any of it. Halve the headroom for the load phase
		// so peak RSS tracks the live set, not the churn; the workload phase
		// runs at default pacing.
		gcRestore := -1
		if *loadBudget > 0 {
			gcRestore = debug.SetGCPercent(50)
		}
		eng, err := core.Open(tuples, core.Config{
			Peers:       n,
			Grid:        pgrid.Config{LatencyAwareRefs: *latAware},
			Runtime:     mode,
			LoadWorkers: *loadWorkers,
			LoadBudget:  *loadBudget,
			Latency:     latency,
			Service:     *service,
			Trace:       tracer,
			MetricsAddr: *metricsAddr,
			Cache:       opt.cache,
			Bandwidth:   bwRate,
			Drop:        *drop,
		})
		if gcRestore >= 0 {
			debug.SetGCPercent(gcRestore)
		}
		if err != nil {
			fatal(err)
		}
		if addr := eng.MetricsAddr(); addr != "" {
			fmt.Printf("metrics:  serving http://%s/metrics\n", addr)
		}
		loadWall := time.Since(loadStart)
		s := eng.Stats().Grid
		postingsPerSec := 0.0
		if secs := loadWall.Seconds(); secs > 0 {
			postingsPerSec = float64(eng.Stats().Storage.Postings) / secs
		}
		fmt.Printf("%-10d %-11d %2d / %5.1f / %2d     %-12.1f %-10d %-10d %-10s %-12.0f\n",
			s.Peers, s.Leaves, s.MinDepth, s.AvgDepth, s.MaxDepth,
			s.AvgRefs, s.StoredItems, s.MaxLeafItems,
			loadWall.Round(time.Millisecond), postingsPerSec)
		li := eng.LoadInfo()
		fmt.Printf("load:     windows=%d budget=%s modeled-peak=%s rss-peak=%s\n",
			li.Windows, fmtBytes(li.Budget), fmtBytes(li.PeakEntryBytes), fmtBytes(peakRSS()))
		if opt.openLoop {
			if err := runOpenLoop(eng, corpus, m, *rate, *zipf, *arrivals, *seed); err != nil {
				fatal(fmt.Errorf("open-loop workload at %d peers: %w", n, err))
			}
			fmt.Println()
		} else if *mixes > 0 {
			var err error
			if *clients > 1 {
				err = runWorkloadClients(eng, corpus, m, *mixes, *clients, *seed, *churn, *churnMode)
			} else {
				err = runWorkload(eng, corpus, m, *mixes, *seed, *churn, *churnMode)
			}
			if err != nil {
				fatal(fmt.Errorf("workload at %d peers: %w", n, err))
			}
			fmt.Println()
		}
		if err := writeObservability(eng, tracer, *traceOut, *traceChrome, *metricsOut); err != nil {
			fatal(err)
		}
		if err := eng.Close(); err != nil {
			fatal(err)
		}
	}

	if *validate {
		fmt.Printf("\nE2: routing cost vs 0.5*log2(partitions) (%d lookups each)\n", *lookups)
		points, err := bench.SearchCost(corpus, peers, *lookups, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s %-11s %-10s %-12s\n", "peers", "partitions", "avg hops", "0.5*log2(P)")
		for _, p := range points {
			fmt.Printf("%-10d %-11d %-10.2f %-12.2f\n", p.Peers, p.Leaves, p.AvgHops, p.HalfLogN)
		}
	}
}

// mixEvent and churnEvent are the control messages of the workload driver:
// the discrete-event runtime schedules query-mix initiations and peer
// failures/recoveries on one virtual timeline.
type mixEvent struct{ round int }

func (mixEvent) Size() int    { return 0 }
func (mixEvent) Kind() string { return "driver.mix" }

type churnEvent struct{}

func (churnEvent) Size() int    { return 0 }
func (churnEvent) Kind() string { return "driver.churn" }

// tolerableChurnErr reports whether every error in err's tree is an expected
// consequence of churn: a partition transiently unreachable, routing running
// out of live references, a message hitting a crashed peer, or a query
// initiated at a departed slot. Anything else (parse failures, invariant
// violations, planner bugs) must still abort the workload — churn is not a
// reason to swallow every error.
func tolerableChurnErr(err error) bool {
	if err == nil {
		return true
	}
	if multi, ok := err.(interface{ Unwrap() []error }); ok {
		for _, sub := range multi.Unwrap() {
			if !tolerableChurnErr(sub) {
				return false
			}
		}
		return true
	}
	switch err {
	case pgrid.ErrUnreachable, pgrid.ErrRoutingExhausted, pgrid.ErrNoLiveHost,
		pgrid.ErrDeparted, simnet.ErrNodeDown, simnet.ErrLinkLoss:
		// ErrLinkLoss only reaches a query result when the fabric is lossy
		// (-drop) and the retry budget ran out on a write path; reads degrade.
		return true
	}
	if sub := errors.Unwrap(err); sub != nil {
		return tolerableChurnErr(sub)
	}
	return false
}

// churnDriver performs one churn event per step — graceful membership churn
// (Join/Leave published as grid epochs) or crash toggling, followed by the
// routing-table refresh a self-organizing P-Grid continuously does. Both
// workload drivers share it: the sequential driver steps it from its own
// driver runtime, the concurrent driver from control events on the engine's
// runtime. Steps always run on one scheduler goroutine, so the fields need
// no locking; failures go through reportErr (whose sink supplies any
// locking it needs).
type churnDriver struct {
	eng       *core.Engine
	rng       *rand.Rand
	mode      string
	reportErr func(error)

	toggles       int
	joins, leaves int
	downList      []simnet.NodeID
}

func (c *churnDriver) step() {
	c.toggles++
	switch c.mode {
	case "membership":
		// Half the events remove a random peer gracefully (skipping sole
		// owners and already-departed slots), half add a fresh one — the
		// sustained-churn regime of the NearBucket-LSH and image-similarity
		// P2P evaluations. Only those two expected refusals are skipped; any
		// other membership error is an invariant violation and aborts the
		// run.
		if c.rng.Intn(2) == 0 {
			// RandomPeer skips tombstones, so the leave rate does not decay
			// as departures accumulate in the id space.
			id := c.eng.Grid().RandomPeer()
			switch err := c.eng.Leave(id); {
			case err == nil:
				c.leaves++
			case errors.Is(err, pgrid.ErrSoleOwner), errors.Is(err, pgrid.ErrDeparted):
				// Sole owners must stay; tombstones cannot leave twice.
			default:
				c.reportErr(fmt.Errorf("churn leave(%d): %w", id, err))
			}
		} else {
			if _, _, err := c.eng.Join(); err == nil {
				c.joins++
			} else {
				// Without crash injection every partition has a live host, so
				// a failed join is always a bug.
				c.reportErr(fmt.Errorf("churn join: %w", err))
			}
		}
	default: // crash
		// Revive the longest-failed peer once a few are down, otherwise fail
		// a random live one.
		if len(c.downList) >= 3 {
			c.eng.Net().SetDown(c.downList[0], false)
			c.downList = c.downList[1:]
		} else {
			id := simnet.NodeID(c.rng.Intn(c.eng.Grid().PeerCount()))
			if !c.eng.Net().IsDown(id) {
				c.eng.Net().SetDown(id, true)
				c.downList = append(c.downList, id)
			}
		}
	}
	c.eng.RefreshRefs()
}

// runWorkload executes the query mix on one engine and prints the summary
// table. Queries and churn are interleaved deterministically by scheduling
// them as events of an asyncnet.Runtime: each mix initiation runs at its
// virtual instant, and churn events run between initiations. In crash mode a
// churn event toggles a random peer down/up through the failure set; in
// membership mode it performs real structural churn — a graceful Leave of a
// random peer or a Join of a new one, each published as a grid epoch while
// queries execute. Both modes refresh routing tables afterwards, as a
// self-organizing P-Grid continuously does.
func runWorkload(eng *core.Engine, corpus []string, m ops.Method, mixes int, seed int64, churnRate float64, churnMode string) error {
	w := bench.QueryMix()
	w.Repeats = 1
	col := eng.Net().Collector()
	col.Reset()

	var (
		totals  metrics.Tally
		queries int
		failed  int
		runErr  error
	)
	observe := func(qt metrics.Tally) {
		queries++
		totals.AddTally(qt)
		col.ObserveQuery(qt)
	}
	churn := &churnDriver{
		eng:  eng,
		rng:  rand.New(rand.NewSource(seed)),
		mode: churnMode,
		reportErr: func(err error) {
			if runErr == nil {
				runErr = err
			}
		},
	}

	const driver = simnet.NodeID(0)
	rt := asyncnet.NewRuntime()
	rt.Register(driver, 0, func(rt *asyncnet.Runtime, ev asyncnet.Event) {
		switch ev.Msg.(type) {
		case mixEvent:
			round := ev.Msg.(mixEvent).round
			if _, err := bench.RunMixObserved(eng, "word", corpus, w, m,
				seed+int64(round), observe); err != nil {
				// Under churn, unreachability-class failures are expected and
				// only counted; any other error class still aborts.
				if churnRate > 0 && tolerableChurnErr(err) {
					failed++
				} else if runErr == nil {
					runErr = err
				}
			}
		case churnEvent:
			churn.step()
		}
	})

	// One mix initiation per simulated second; churn events at churnRate/s.
	const tick = simnet.VTime(1_000_000)
	for r := 0; r < mixes; r++ {
		if err := rt.Post(driver, driver, mixEvent{round: r}, simnet.VTime(r)*tick); err != nil {
			return err
		}
	}
	if churnRate > 0 {
		interval := simnet.VTime(float64(tick) / churnRate)
		if interval < 1 {
			interval = 1 // extreme rates: at most one toggle per microsecond
		}
		horizon := simnet.VTime(mixes) * tick
		for at := interval / 2; at < horizon; at += interval {
			if err := rt.Post(driver, driver, churnEvent{}, at); err != nil {
				return err
			}
		}
	}
	startWall := time.Now()
	rt.Run()
	wall := time.Since(startWall)

	// Tolerable failures under churn were counted above; anything in runErr
	// is a real error and aborts the sweep.
	if runErr != nil {
		return runErr
	}
	fmt.Printf("peers=%d queries=%d failed-mixes=%d churn-events=%d joins=%d leaves=%d down-now=%d departed=%d\n",
		eng.Grid().LiveCount(), queries, failed, churn.toggles, churn.joins, churn.leaves,
		eng.Net().DownCount(), eng.Grid().DepartedCount())
	if queries > 0 {
		fmt.Printf("messages: total=%d mean/query=%.1f\n", totals.Messages, float64(totals.Messages)/float64(queries))
		fmt.Printf("bytes:    total=%d mean/query=%.1f\n", totals.Bytes, float64(totals.Bytes)/float64(queries))
		fmt.Print(col.QueryReport())
	}
	printRobustness(eng)
	printCacheStats(eng)
	printActorLoad(eng)
	fmt.Printf("wall:     %s\n", wall.Round(time.Millisecond))
	return nil
}

// runWorkloadClients is the concurrent-issue form of runWorkload: `clients`
// closed-loop clients issue the query mix on the actor engine's own
// discrete-event runtime — the workload driver and the query engine share
// one runtime and one virtual timeline. Each client's next mix round starts
// the moment its previous one completed, operations of different clients
// queue behind each other in peer mailboxes (reported as metrics.Tally.Queue
// and in the per-peer load table), and churn events are control events on
// the same timeline: a membership or crash event lands *between* the very
// message deliveries of in-flight queries, not merely between query rounds.
func runWorkloadClients(eng *core.Engine, corpus []string, m ops.Method, mixes, clients int, seed int64, churnRate float64, churnMode string) error {
	w := bench.QueryMix()
	w.Repeats = 1
	col := eng.Net().Collector()
	col.Reset()
	rt := eng.Runtime() // non-nil: -clients > 1 requires actor mode

	var (
		mu      sync.Mutex
		totals  metrics.Tally
		queries int
		failed  int
		runErr  error
	)
	observe := func(qt metrics.Tally) {
		mu.Lock()
		queries++
		totals.AddTally(qt)
		col.ObserveQuery(qt)
		mu.Unlock()
	}

	// Churn: a self-rearming control event on the engine's runtime. The
	// callback runs on the drain loop between message deliveries, so the
	// usual churn-safety contract (epoch snapshots) is all it relies on.
	var stopped atomic.Bool
	churn := &churnDriver{
		eng:  eng,
		rng:  rand.New(rand.NewSource(seed)),
		mode: churnMode,
		reportErr: func(err error) {
			mu.Lock()
			if runErr == nil {
				runErr = err
			}
			mu.Unlock()
		},
	}
	if churnRate > 0 {
		const tick = simnet.VTime(1_000_000) // churn rates are per simulated second
		interval := simnet.VTime(float64(tick) / churnRate)
		if interval < 1 {
			interval = 1
		}
		var arm func(delay simnet.VTime)
		arm = func(delay simnet.VTime) {
			rt.After(delay, func(rt *asyncnet.Runtime, at simnet.VTime) {
				if stopped.Load() {
					return
				}
				churn.step()
				arm(interval)
			})
		}
		arm(interval / 2)
	}

	startWall := time.Now()
	eng.Concurrent(clients, func(client int) {
		for r := client; r < mixes; r += clients {
			if _, err := bench.RunMixObserved(eng, "word", corpus, w, m,
				seed+int64(r), observe); err != nil {
				mu.Lock()
				if churnRate > 0 && tolerableChurnErr(err) {
					failed++
				} else if runErr == nil {
					runErr = err
				}
				mu.Unlock()
			}
		}
	})
	stopped.Store(true)
	wall := time.Since(startWall)

	if runErr != nil {
		return runErr
	}
	fmt.Printf("peers=%d clients=%d queries=%d failed-mixes=%d churn-events=%d joins=%d leaves=%d down-now=%d departed=%d\n",
		eng.Grid().LiveCount(), clients, queries, failed, churn.toggles, churn.joins, churn.leaves,
		eng.Net().DownCount(), eng.Grid().DepartedCount())
	if queries > 0 {
		fmt.Printf("messages: total=%d mean/query=%.1f\n", totals.Messages, float64(totals.Messages)/float64(queries))
		fmt.Printf("bytes:    total=%d mean/query=%.1f\n", totals.Bytes, float64(totals.Bytes)/float64(queries))
		fmt.Printf("queued:   total=%.2fms cross-operation mailbox wait (mean/query=%.2fms)\n",
			float64(totals.Queue)/1000, float64(totals.Queue)/float64(queries)/1000)
		fmt.Print(col.QueryReport())
	}
	printRobustness(eng)
	printCacheStats(eng)
	printActorLoad(eng)
	fmt.Printf("wall:     %s\n", wall.Round(time.Millisecond))
	return nil
}

// runOpenLoop drives the Poisson/Zipf open-loop workload at one offered rate
// and prints the saturation point: throughput vs. the offered rate, sojourn
// percentiles, cache effectiveness and the hottest peer. Sweeping -rate
// across invocations (or rates inside bench.OpenLoop for programmatic use)
// locates the knee.
func runOpenLoop(eng *core.Engine, corpus []string, m ops.Method, rate, zipf float64, arrivals int, seed int64) error {
	startWall := time.Now()
	points, err := bench.OpenLoop(eng, corpus, []float64{rate}, bench.OpenLoopWorkload{
		Method:   m,
		Seed:     seed,
		ZipfS:    zipf,
		Arrivals: arrivals,
	})
	if err != nil {
		return err
	}
	wall := time.Since(startWall)
	fmt.Print(bench.FormatOpenLoop(points))
	printRobustness(eng)
	printCacheStats(eng)
	printActorLoad(eng)
	fmt.Printf("wall:     %s\n", wall.Round(time.Millisecond))
	return nil
}

// runAdversity executes the recall-under-adversity sweep and prints the
// recall table; with out non-empty the deterministic JSON lands there.
func runAdversity(seed int64, out string) error {
	sweep := &bench.Adversity{
		Seed:     seed,
		Progress: func(line string) { fmt.Println(line) },
	}
	points, err := sweep.Run()
	if err != nil {
		return err
	}
	fmt.Print("\n" + bench.FormatAdversity(points))
	if out == "" {
		return nil
	}
	data, err := bench.AdversityJSON(points)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("adversity: JSON written to %s\n", out)
	return nil
}

// printRobustness renders the fault-injection counters; silent on a lossless
// fabric with no robustness activity.
func printRobustness(eng *core.Engine) {
	s := eng.Grid().RobustStats()
	drops := eng.Net().Drops()
	if drops == 0 && s == (pgrid.RobustStats{}) {
		return
	}
	fmt.Printf("faults:   drops=%d retries=%d failovers=%d unanswered=%d fenced-writes=%d\n",
		drops, s.Retries, s.Failovers, s.Unanswered, s.FencedWrites)
}

// printCacheStats renders the initiator-cache summary lines next to the
// hotspot table; silent when caching is disabled.
func printCacheStats(eng *core.Engine) {
	if !eng.Store().CacheEnabled() {
		return
	}
	cs := eng.Store().CacheStats()
	line := func(name string, s qcache.Stats) {
		fmt.Printf("cache:    %-7s hits=%d misses=%d (%.1f%% hit) evictions=%d invalidations=%d invalidated=%d bytes=%d entries=%d\n",
			name, s.Hits, s.Misses, 100*s.HitRatio(), s.Evictions, s.Invalidations, s.Invalidated, s.Bytes, s.Entries)
	}
	line("posting", cs.Postings)
	line("result", cs.Results)
}

// writeObservability exports the engine's trace and a final metrics scrape.
// The scrape is fetched over HTTP from the engine's own live /metrics
// endpoint — the same bytes an external Prometheus would collect — so the
// written file doubles as an end-to-end check of the endpoint.
func writeObservability(eng *core.Engine, tracer *asyncnet.Tracer, traceOut, traceChrome, metricsOut string) error {
	writeFile := func(path string, write func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		return f.Close()
	}
	if traceOut != "" {
		if err := writeFile(traceOut, tracer.WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("trace:    %s (%d records, %d overwritten)\n", traceOut, tracer.Len(), tracer.Overwritten())
	}
	if traceChrome != "" {
		if err := writeFile(traceChrome, tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("trace:    %s (chrome://tracing)\n", traceChrome)
	}
	if metricsOut != "" {
		resp, err := http.Get("http://" + eng.MetricsAddr() + "/metrics")
		if err != nil {
			return fmt.Errorf("scraping /metrics: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scraping /metrics: %s", resp.Status)
		}
		if err := writeFile(metricsOut, func(w io.Writer) error {
			_, err := io.Copy(w, resp.Body)
			return err
		}); err != nil {
			return err
		}
		fmt.Printf("metrics:  final scrape written to %s\n", metricsOut)
	}
	return nil
}

// printActorLoad renders the per-peer hotspot table of an actor-mode engine:
// the top peers by busy (service) time with their share of the total, their
// per-message queue-wait percentiles, and the deepest backlog each mailbox
// reached. Rows sort by busy time (delivered count, then id, break ties) and
// column widths adapt to the widest cell, so runs diff cleanly regardless of
// peer count.
func printActorLoad(eng *core.Engine) {
	rt := eng.Runtime()
	if rt == nil {
		return
	}
	loads := rt.AllStats()
	var totalQueued, totalBusy simnet.VTime
	maxBacklog := 0
	for _, l := range loads {
		totalQueued += l.Stats.QueueDelay
		totalBusy += l.Stats.Busy
		if l.Stats.MaxBacklog > maxBacklog {
			maxBacklog = l.Stats.MaxBacklog
		}
	}
	fmt.Printf("actors:   queued-total=%s busy-total=%s max-backlog=%d\n",
		totalQueued, totalBusy, maxBacklog)
	sort.Slice(loads, func(i, j int) bool {
		si, sj := loads[i].Stats, loads[j].Stats
		if si.Busy != sj.Busy {
			return si.Busy > sj.Busy
		}
		if si.Delivered != sj.Delivered {
			return si.Delivered > sj.Delivered
		}
		return loads[i].ID < loads[j].ID
	})
	const top = 8
	rows := [][]string{{"peer", "busy", "share", "delivered", "queued", "q-p50", "q-p99", "max-backlog"}}
	for i, l := range loads {
		if i >= top || (l.Stats.Busy == 0 && l.Stats.Delivered == 0) {
			break
		}
		share := 0.0
		if totalBusy > 0 {
			share = 100 * float64(l.Stats.Busy) / float64(totalBusy)
		}
		rows = append(rows, []string{
			fmt.Sprint(l.ID),
			l.Stats.Busy.String(),
			fmt.Sprintf("%.1f%%", share),
			fmt.Sprint(l.Stats.Delivered),
			l.Stats.QueueDelay.String(),
			l.Stats.QueueP50.String(),
			l.Stats.QueueP99.String(),
			fmt.Sprint(l.Stats.MaxBacklog),
		})
	}
	if len(rows) == 1 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
}

func parseMethod(s string) (ops.Method, error) {
	switch s {
	case "qgrams":
		return ops.MethodQGrams, nil
	case "qsamples":
		return ops.MethodQSamples, nil
	case "strings", "naive":
		return ops.MethodNaive, nil
	default:
		return 0, fmt.Errorf("unknown method %q (want qgrams, qsamples or strings)", s)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// peakRSS reports the process's peak resident set size in bytes: VmHWM from
// /proc/self/status where available (the OS high-water mark — the honest
// memory-peak measure for load-mode comparisons), falling back to the Go
// runtime's Sys (memory obtained from the OS, which includes reserved GC
// headroom and so overstates residency).
func peakRSS() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridsim:", err)
	os.Exit(1)
}
