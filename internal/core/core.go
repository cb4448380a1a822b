// Package core is the public facade of the reproduction: an Engine bundles a
// simulated P-Grid network, the vertical triple store of Sections 3 and 4,
// the physical similarity operators, and the VQL query processor into one
// handle.
//
// Typical use:
//
//	data := []triples.Tuple{
//	    triples.MustTuple("car1", "name", "BMW", "hp", 210, "price", 48000),
//	}
//	eng, err := core.Open(data, core.Config{Peers: 64})
//	...
//	res, err := eng.Query(`SELECT ?n WHERE { (?o,name,?n)
//	                       FILTER (dist(?n,'BMW') < 2) }`)
//
// The engine is safe for concurrent queries, and — via pgrid's epoch-snapshot
// membership state — for structural churn (Join, Leave, RefreshRefs) while
// queries run; loading happens in Open.
package core

import (
	"fmt"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/plan"
	"repro/internal/simnet"
	"repro/internal/triples"
	"repro/internal/vql"
)

// RuntimeMode selects how queries execute on the simulated overlay.
type RuntimeMode int

const (
	// RuntimeDirect is the paper's serial shared-memory simulator: operators
	// are direct calls, logically parallel branches chain, and virtual time
	// is pure arithmetic.
	RuntimeDirect RuntimeMode = iota
	// RuntimeActor runs the operators themselves as message handlers on the
	// asyncnet discrete-event runtime: every peer is an actor with a mailbox
	// and a service time, making queueing delay and per-peer load
	// first-class observables. Results, routes and hop counts are
	// identical to RuntimeDirect for the same seed; with zero service time
	// its latency is the critical path of the logically parallel branches.
	RuntimeActor
)

// String names the mode for flags and reports.
func (m RuntimeMode) String() string {
	if m == RuntimeActor {
		return "actor"
	}
	return "direct"
}

// ParseRuntimeMode maps the -exec flag syntax to a RuntimeMode.
func ParseRuntimeMode(s string) (RuntimeMode, error) {
	switch s {
	case "", "direct":
		return RuntimeDirect, nil
	case "actor":
		return RuntimeActor, nil
	default:
		return 0, fmt.Errorf("core: unknown execution mode %q (want direct or actor)", s)
	}
}

// Config assembles the sub-system configurations.
type Config struct {
	// Peers is the number of simulated peers (default 64).
	Peers int
	// Grid configures overlay construction (replication, routing
	// redundancy, seed).
	Grid pgrid.Config
	// Store configures the storage scheme (gram size, short-value index).
	Store ops.StoreConfig
	// Plan configures query planning, notably the similarity method
	// (q-grams, q-samples, or the naive scan).
	Plan plan.Options
	// Runtime selects the execution mode (direct, actor). The default is
	// the paper's serial shared-memory simulator.
	Runtime RuntimeMode
	// Latency models per-link propagation delay (nil = instantaneous, the
	// paper's cost model). With a model set, queries report simulated
	// latency and hop counts under every runtime.
	Latency asyncnet.LatencyModel
	// Service is each peer's per-message service time in actor mode;
	// nonzero values make congestion (queueing delay, backlog) visible
	// under load.
	Service time.Duration
	// Bandwidth, in bytes per second, adds a size-dependent term to every
	// message: the link delay grows by size/Bandwidth (wrapping Latency in
	// asyncnet.Bandwidth), and actor-mode service times grow by the same
	// transmission time, so large result sets and handovers cost virtual
	// time proportional to their bytes. 0 keeps messages size-free, the
	// paper's cost model.
	Bandwidth int64
	// LoadWorkers bounds the bulk-load pipeline's concurrency: entry
	// extraction, the entry sort and the per-partition batch appliers (grid
	// construction is serial). 0 uses GOMAXPROCS; 1 runs the pipeline
	// serially. The loaded state is byte-identical for every
	// value, so seeded determinism is preserved.
	LoadWorkers int
	// LoadBudget caps the modeled bytes of extracted index entries resident
	// during the load (ops.PlanLoadStream): the planner windows the dataset
	// and each window is extracted, sorted and applied on its own, so peak
	// load memory is one window instead of the corpus. 0 = one window (the
	// fastest path when it fits). The loaded state is byte-identical for
	// every budget.
	LoadBudget int64
	// Trace, when non-nil, records every message lifecycle transition of the
	// measured phase (wire sends on any runtime; the full
	// enqueue/start/end/drop lifecycle with operation ids in actor mode).
	// Installed after the load phase, so traces cover queries only.
	Trace *asyncnet.Tracer
	// MetricsAddr, when non-empty, serves a Prometheus text-format /metrics
	// endpoint on the given TCP address (":0" picks a free port; see
	// Engine.MetricsAddr) for the engine's lifetime, until Engine.Close.
	MetricsAddr string
	// Cache enables the initiator-side posting and result caches
	// (ops.EnableCache): hot probe keys and repeated similarity questions
	// answer locally at zero message cost. A write drops exactly the cached
	// posting lists whose key it wrote and the answers whose evaluation read
	// a key or scanned prefix it wrote; Join, Leave and RefreshRefs drop
	// nothing. The caches take their default byte bounds
	// (ops.DefaultPostingCacheBytes, ops.DefaultResultCacheBytes).
	Cache bool
	// Drop is the per-message loss probability of the fabric (0 = lossless).
	// The fault plan installs after the load phase — the paper does not
	// measure loading, and a lossy load would make the stored state depend on
	// the drop schedule — and it auto-enables the grid's retry policy
	// (retransmission, replica failover, degraded reads) unless the caller
	// configured Grid.Retry explicitly. Drops are deterministic per
	// (seed, link, sequence), so same-seed lossy runs are byte-identical.
	Drop float64
}

func (c *Config) normalize() {
	if c.Peers <= 0 {
		c.Peers = 64
	}
	if c.Grid.RefsPerLevel == 0 && c.Grid.Replication == 0 {
		// Fill only the structural fields; every other Grid setting the
		// caller made (routing, retry, exec) survives.
		def := pgrid.DefaultConfig()
		c.Grid.Replication, c.Grid.RefsPerLevel = def.Replication, def.RefsPerLevel
		if c.Grid.Seed == 0 {
			c.Grid.Seed = def.Seed
		}
	}
	if c.Runtime == RuntimeActor {
		c.Grid.Exec = pgrid.ExecActor
		c.Grid.Service = simnet.VTimeOf(c.Service)
	}
	if c.Bandwidth > 0 {
		c.Latency = asyncnet.Bandwidth{Base: c.Latency, BytesPerSec: c.Bandwidth}
		c.Grid.ServiceRate = c.Bandwidth
	}
	if c.Drop > 0 && !c.Grid.Retry.Enabled {
		// A lossy fabric without the robustness layer would just fail
		// queries wholesale; losses only mean anything when something
		// retransmits. Callers tune attempts/backoff via Grid.Retry.
		c.Grid.Retry = pgrid.RetryConfig{Enabled: true}
	}
}

// Engine is a loaded, queryable deployment.
type Engine struct {
	cfg   Config
	net   *simnet.Network
	grid  *pgrid.Grid
	store *ops.Store
	load  LoadInfo
	obs   observe
}

// LoadInfo summarizes the load phase's memory shape, for reporting peak
// usage against the streaming budget.
type LoadInfo struct {
	// Windows is the load's window count: 1 for any non-empty dataset
	// under budget 0, 0 for an empty one.
	Windows int
	// Budget is the configured byte budget (0 = one window).
	Budget int64
	// PeakEntryBytes is the modeled high-water mark of resident extracted
	// entries — deterministic, unlike allocator measurements.
	PeakEntryBytes int64
}

// Open builds the overlay balanced against the dataset's index keys, loads
// every tuple, and resets the message counters so subsequent accounting
// covers queries only (the paper does not measure the load phase). The
// overlay structure is identical for the same seed under either execution
// mode, so direct and actor engines over the same data answer queries with
// identical results and message counts.
//
// Loading runs the sharded bulk-load pipeline: a planning pass extracts
// every tuple's index entries across cfg.LoadWorkers workers, window by
// window under cfg.LoadBudget (the extracted keys double as the balancing
// sample), then Grid.BulkLoad shards each window's entries by responsible
// partition and applies each shard as one sorted batch. The loaded state is
// byte-identical to routing every tuple through InsertTuple, for every
// worker count and budget, so results stay deterministic.
func Open(data []triples.Tuple, cfg Config) (*Engine, error) {
	cfg.normalize()
	net := simnet.New(cfg.Peers)
	net.SetLatency(asyncnet.Func(cfg.Latency))
	plan, err := ops.PlanLoadStream(data, cfg.Store, cfg.LoadWorkers, cfg.LoadBudget)
	if err != nil {
		return nil, fmt.Errorf("core: planning load: %w", err)
	}
	grid, err := pgrid.Build(net, cfg.Peers, plan.SampleKeys(), cfg.Grid)
	if err != nil {
		return nil, fmt.Errorf("core: building grid: %w", err)
	}
	// The sample has done its job (trie balance + hash anchors); at scale it
	// pins hundreds of MB through the apply phase if kept.
	plan.ReleaseSample()
	store := ops.NewStore(grid, cfg.Store)
	if err := store.ApplyLoadPlan(plan, cfg.LoadWorkers); err != nil {
		return nil, fmt.Errorf("core: loading: %w", err)
	}
	net.Collector().Reset()
	if cfg.Drop > 0 {
		// Loss injects after the load phase: the stored state must not depend
		// on the drop schedule, and measured queries start at link sequence
		// zero so same-seed lossy runs replay identically. The loss draws
		// take a seed of their own, derived from the grid's, so they are
		// isolated from every other seeded choice.
		faultSeed := uint64(cfg.Grid.Seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
		net.SetFaults(&simnet.FaultPlan{DropRate: cfg.Drop, Seed: faultSeed})
	}
	if cfg.Cache {
		// Caches install after the load phase: cached traffic belongs to the
		// measured phase like every other counter.
		store.EnableCache(ops.CacheConfig{Seed: cfg.Grid.Seed})
	}
	eng := &Engine{cfg: cfg, net: net, grid: grid, store: store,
		load: LoadInfo{Windows: plan.Windows(), Budget: plan.Budget(),
			PeakEntryBytes: plan.PeakEntryBytes()}}
	// Observability attaches after the collector reset: traces and metrics
	// cover the measured phase only, like the paper's accounting.
	if cfg.Trace != nil {
		eng.installTracer(cfg.Trace)
	}
	if cfg.MetricsAddr != "" {
		if err := eng.serveMetrics(cfg.MetricsAddr); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// Net exposes the simulated network (metrics, failure injection).
func (e *Engine) Net() *simnet.Network { return e.net }

// Runtime exposes the discrete-event runtime of an actor-mode engine (nil
// otherwise): tools read per-peer mailbox and load stats from it.
func (e *Engine) Runtime() *asyncnet.Runtime { return e.grid.Runtime() }

// Grid exposes the overlay.
func (e *Engine) Grid() *pgrid.Grid { return e.grid }

// Store exposes the triple store and its operators.
func (e *Engine) Store() *ops.Store { return e.store }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// LoadInfo reports the load phase's window count, streaming budget and
// modeled peak entry bytes.
func (e *Engine) LoadInfo() LoadInfo { return e.load }

// Query parses, plans and executes a VQL query from a random initiating peer
// (the paper chooses initiators randomly), returning the materialized result.
func (e *Engine) Query(query string) (*plan.Result, error) {
	return e.QueryFrom(e.grid.RandomPeer(), nil, query)
}

// QueryMeasured runs a query and returns its message/byte cost.
func (e *Engine) QueryMeasured(query string) (*plan.Result, metrics.Tally, error) {
	var tally metrics.Tally
	res, err := e.QueryFrom(e.grid.RandomPeer(), &tally, query)
	return res, tally, err
}

// QueryFrom runs a query from a specific initiating peer with optional
// per-query accounting.
func (e *Engine) QueryFrom(from simnet.NodeID, tally *metrics.Tally, query string) (*plan.Result, error) {
	return plan.Run(e.store, from, tally, query, e.cfg.Plan)
}

// Concurrent runs n closed-loop client bodies against the engine. On an
// actor engine every body is issued onto the overlay's one discrete-event
// timeline: the bodies' operations are injected as kickoff events, a single
// drain loop steps the shared heap, and per-query tallies include the
// mailbox queueing suffered behind *other* clients' operations
// (metrics.Tally.Queue) — cross-operation contention, which per-episode
// execution could not express. Body spawn and first-issue order are
// deterministic, so a fixed seed reproduces latencies and queueing exactly.
// On direct engines, which model no cross-operation contention,
// bodies run serially in index order with identical results and message
// costs.
func (e *Engine) Concurrent(n int, body func(client int)) {
	e.grid.Concurrent(n, body)
}

// Explain returns the physical plan of a query without executing it.
func (e *Engine) Explain(query string) (string, error) {
	q, err := vql.Parse(query)
	if err != nil {
		return "", err
	}
	p, err := plan.Build(q, e.cfg.Plan)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Similar runs the basic similarity operator (Algorithm 2) from a random
// initiator: instance level when attr is non-empty, schema level otherwise.
func (e *Engine) Similar(needle, attr string, d int) ([]ops.Match, error) {
	return e.store.Similar(nil, e.grid.RandomPeer(), needle, attr, d, e.cfg.Plan.Similar)
}

// SimJoin runs a similarity join (Algorithm 3) from a random initiator.
func (e *Engine) SimJoin(ln, rn string, d int) ([]ops.JoinPair, error) {
	return e.store.SimJoin(nil, e.grid.RandomPeer(), ln, rn, d,
		ops.JoinOptions{Similar: e.cfg.Plan.Similar})
}

// TopN runs a numeric rank-aware query (Algorithm 4) from a random initiator.
func (e *Engine) TopN(attr string, n int, rank ops.Rank, ref float64) ([]ops.NumMatch, error) {
	return e.store.TopN(nil, e.grid.RandomPeer(), attr, n, rank, ref)
}

// TopNString runs a nearest-neighbour string query from a random initiator.
func (e *Engine) TopNString(attr, needle string, n, maxDist int) ([]ops.Match, error) {
	return e.store.TopNString(nil, e.grid.RandomPeer(), attr, needle, n, maxDist,
		ops.TopNOptions{Similar: e.cfg.Plan.Similar})
}

// Insert adds a tuple at runtime with routed, accounted messages.
func (e *Engine) Insert(tu triples.Tuple) error {
	return e.store.InsertTuple(nil, e.grid.RandomPeer(), tu)
}

// Delete removes one triple at runtime.
func (e *Engine) Delete(tr triples.Triple) error {
	return e.store.DeleteTriple(nil, e.grid.RandomPeer(), tr)
}

// Join adds a new peer to the running overlay (P-Grid's self-organizing
// construction): the newcomer either splits the most loaded partition with a
// live member or becomes a further replica. Handover messages are accounted
// on the returned tally. Safe concurrently with queries: the membership
// change is published as a new grid epoch.
func (e *Engine) Join() (simnet.NodeID, metrics.Tally, error) {
	var tally metrics.Tally
	id, err := e.grid.Join(&tally)
	return id, tally, err
}

// Leave removes a peer gracefully; its partition must keep at least one
// member (crash failures are injected via Net().SetDown instead). The
// departed slot is tombstoned in the next grid epoch — it is not counted by
// Net().DownCount(), which tracks crashes only. Safe concurrently with
// queries.
func (e *Engine) Leave(id simnet.NodeID) error {
	return e.grid.Leave(nil, id)
}

// RefreshRefs repairs routing references that point at crashed or departed
// peers, publishing the repair as a new grid epoch. It returns the number of
// reference levels changed. Safe concurrently with queries.
func (e *Engine) RefreshRefs() int {
	return e.grid.RefreshRefs()
}

// Stats aggregates overlay and storage statistics.
type Stats struct {
	Grid    pgrid.Stats
	Storage ops.StorageStats
	Network metrics.Tally
}

// Stats snapshots engine statistics.
func (e *Engine) Stats() Stats {
	return Stats{
		Grid:    e.grid.Stats(),
		Storage: e.store.Stats(),
		Network: e.net.Collector().Total(),
	}
}
