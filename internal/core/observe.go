package core

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"repro/internal/asyncnet"
	"repro/internal/metrics"
	"repro/internal/qcache"
	"repro/internal/simnet"
)

// Observability surface of the engine: a metrics.Registry over the
// simulation's native accounting, an HTTP /metrics endpoint serving it in
// Prometheus text format, and the lifecycle tracer bridge. The registry is a
// read-only lens — every scrape snapshots the collector, grid stats and (in
// actor mode) the per-peer runtime stats at call time, so a run can be
// scraped while the workload executes.

// observe is the engine's lazily-built observability state.
type observe struct {
	once     sync.Once
	registry *metrics.Registry

	srvMu sync.Mutex
	ln    net.Listener
	srv   *http.Server
}

// Registry returns the engine's metrics registry, building it on first use.
// Families cover the paper's global message/byte accounting per message kind,
// per-query latency/hops/queueing histograms, grid membership gauges, and —
// on actor engines — per-peer delivered counters, busy and queue-wait time,
// backlog high-water and live queue percentiles.
func (e *Engine) Registry() *metrics.Registry {
	e.obs.once.Do(func() { e.obs.registry = e.buildRegistry() })
	return e.obs.registry
}

// secs converts virtual-time microseconds to seconds.
func secs(v simnet.VTime) float64 { return float64(v) / 1e6 }

// usHistSample converts a metrics.Histogram recorded in microseconds into a
// seconds-scaled HistSample.
func usHistSample(h *metrics.Histogram) []metrics.HistSample {
	bounds, counts, count, sum := h.Export()
	for i := range bounds {
		bounds[i] /= 1e6
	}
	return []metrics.HistSample{{Bounds: bounds, Counts: counts, Count: count, Sum: sum / 1e6}}
}

func (e *Engine) buildRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	col := e.net.Collector()

	kindSamples := func(value func(metrics.Tally) float64) []metrics.Sample {
		byKind := col.ByKind()
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		out := make([]metrics.Sample, 0, len(kinds))
		for _, k := range kinds {
			out = append(out, metrics.Sample{
				Labels: []metrics.Label{{Name: "kind", Value: k}},
				Value:  value(byKind[k]),
			})
		}
		return out
	}
	r.Counter("pgrid_messages_total",
		"Overlay messages sent, by message kind (the paper's message count).",
		func() []metrics.Sample {
			return kindSamples(func(t metrics.Tally) float64 { return float64(t.Messages) })
		})
	r.Counter("pgrid_bytes_total",
		"Overlay payload bytes sent, by message kind (the paper's data volume).",
		func() []metrics.Sample {
			return kindSamples(func(t metrics.Tally) float64 { return float64(t.Bytes) })
		})

	r.Histogram("pgrid_query_latency_seconds",
		"Per-query simulated end-to-end latency (virtual time).",
		func() []metrics.HistSample { return usHistSample(col.LatencyHist()) })
	r.Histogram("pgrid_query_queue_seconds",
		"Per-query total mailbox queueing delay (actor mode; virtual time).",
		func() []metrics.HistSample { return usHistSample(col.QueueHist()) })
	r.Histogram("pgrid_query_hops",
		"Per-query longest forwarding chain.",
		func() []metrics.HistSample {
			bounds, counts, count, sum := col.HopsHist().Export()
			return []metrics.HistSample{{Bounds: bounds, Counts: counts, Count: count, Sum: sum}}
		})

	// Robustness counters: always registered (they read as 0 on a lossless,
	// churn-free run), so dashboards need no conditional scraping.
	single := func(value func() float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			return []metrics.Sample{{Value: value()}}
		}
	}
	r.Counter("pgrid_drops_total",
		"Messages the fabric's fault plan dropped in transit.",
		single(func() float64 { return float64(e.net.Drops()) }))
	r.Counter("pgrid_retries_total",
		"Retransmissions of messages lost in transit.",
		single(func() float64 { return float64(e.grid.RobustStats().Retries) }))
	r.Counter("pgrid_failovers_total",
		"Sends redirected to a structural replica after an unreachable target.",
		single(func() float64 { return float64(e.grid.RobustStats().Failovers) }))
	r.Counter("pgrid_unanswered_total",
		"Read branches degraded to silence after the retry policy was exhausted.",
		single(func() float64 { return float64(e.grid.RobustStats().Unanswered) }))
	r.Counter("pgrid_fenced_writes_total",
		"Writes that raced a membership change and were redirected to the current epoch's owners.",
		single(func() float64 { return float64(e.grid.RobustStats().FencedWrites) }))

	r.Gauge("pgrid_peers",
		"Live peers in the overlay.",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.grid.Stats().Peers)}}
		})
	r.Gauge("pgrid_peers_departed",
		"Gracefully departed (tombstoned) peers.",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.grid.Stats().Departed)}}
		})
	r.Gauge("pgrid_peers_down",
		"Crashed peers per the fabric's failure set.",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(e.net.DownCount())}}
		})

	if rt := e.Runtime(); rt != nil {
		e.registerPeerFamilies(r, rt)
	}
	if e.store.CacheEnabled() {
		e.registerCacheFamilies(r)
	}
	if tr := e.cfg.Trace; tr != nil {
		r.Counter("pgrid_trace_records_total",
			"Lifecycle trace records offered to the ring buffer.",
			func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(tr.Total())}}
			})
		r.Counter("pgrid_trace_overwritten_total",
			"Trace records discarded by ring-buffer overwrite.",
			func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(tr.Overwritten())}}
			})
	}
	return r
}

// registerCacheFamilies adds the initiator-side cache counters, labelled by
// cache (posting vs result); every scrape snapshots CacheStats once per
// family.
func (e *Engine) registerCacheFamilies(r *metrics.Registry) {
	perCache := func(value func(qcache.Stats) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			cs := e.store.CacheStats()
			return []metrics.Sample{
				{Labels: []metrics.Label{{Name: "cache", Value: "posting"}}, Value: value(cs.Postings)},
				{Labels: []metrics.Label{{Name: "cache", Value: "result"}}, Value: value(cs.Results)},
			}
		}
	}
	r.Counter("pgrid_cache_hits_total",
		"Initiator-side cache hits (answers served locally at zero message cost).",
		perCache(func(s qcache.Stats) float64 { return float64(s.Hits) }))
	r.Counter("pgrid_cache_misses_total",
		"Initiator-side cache misses (fetched from the overlay).",
		perCache(func(s qcache.Stats) float64 { return float64(s.Misses) }))
	r.Counter("pgrid_cache_evictions_total",
		"Entries evicted to stay within the cache byte bound.",
		perCache(func(s qcache.Stats) float64 { return float64(s.Evictions) }))
	r.Counter("pgrid_cache_invalidations_total",
		"Writes that dropped at least one cached entry (membership changes drop none).",
		perCache(func(s qcache.Stats) float64 { return float64(s.Invalidations) }))
	r.Counter("pgrid_cache_invalidated_entries_total",
		"Cached entries dropped because a write landed on a key or scanned prefix they were read from.",
		perCache(func(s qcache.Stats) float64 { return float64(s.Invalidated) }))
	r.Gauge("pgrid_cache_bytes",
		"Accounted bytes currently cached.",
		perCache(func(s qcache.Stats) float64 { return float64(s.Bytes) }))
	r.Gauge("pgrid_cache_entries",
		"Entries currently cached.",
		perCache(func(s qcache.Stats) float64 { return float64(s.Entries) }))
}

// registerPeerFamilies adds the actor runtime's per-peer load families; every
// scrape snapshots AllStats once per family.
func (e *Engine) registerPeerFamilies(r *metrics.Registry, rt *asyncnet.Runtime) {
	peerLabel := func(id simnet.NodeID) []metrics.Label {
		return []metrics.Label{{Name: "peer", Value: strconv.Itoa(int(id))}}
	}
	perPeer := func(value func(asyncnet.ActorStats) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			loads := rt.AllStats()
			out := make([]metrics.Sample, 0, len(loads))
			for _, l := range loads {
				out = append(out, metrics.Sample{Labels: peerLabel(l.ID), Value: value(l.Stats)})
			}
			return out
		}
	}
	r.Counter("pgrid_peer_delivered_total",
		"Messages processed by each peer's actor.",
		perPeer(func(s asyncnet.ActorStats) float64 { return float64(s.Delivered) }))
	r.Counter("pgrid_peer_busy_seconds_total",
		"Virtual service time each peer spent processing messages.",
		perPeer(func(s asyncnet.ActorStats) float64 { return secs(s.Busy) }))
	r.Counter("pgrid_peer_queue_wait_seconds_total",
		"Virtual time messages waited in each peer's mailbox.",
		perPeer(func(s asyncnet.ActorStats) float64 { return secs(s.QueueDelay) }))
	r.Gauge("pgrid_peer_backlog_high_water",
		"Largest mailbox depth each peer ever observed.",
		perPeer(func(s asyncnet.ActorStats) float64 { return float64(s.MaxBacklog) }))
	r.Gauge("pgrid_peer_pending",
		"Messages currently queued at each peer.",
		perPeer(func(s asyncnet.ActorStats) float64 { return float64(s.Pending) }))
	r.Gauge("pgrid_peer_queue_wait_p50_seconds",
		"Median per-message mailbox wait at each peer.",
		perPeer(func(s asyncnet.ActorStats) float64 { return secs(s.QueueP50) }))
	r.Gauge("pgrid_peer_queue_wait_p99_seconds",
		"99th-percentile per-message mailbox wait at each peer.",
		perPeer(func(s asyncnet.ActorStats) float64 { return secs(s.QueueP99) }))
}

// serveMetrics binds the /metrics endpoint on addr (":0" picks a free port)
// and serves it in the background until Close.
func (e *Engine) serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("core: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", e.Registry().Handler())
	srv := &http.Server{Handler: mux}
	e.obs.srvMu.Lock()
	e.obs.ln, e.obs.srv = ln, srv
	e.obs.srvMu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// MetricsAddr returns the bound address of the /metrics endpoint, or "" when
// none is being served. With Config.MetricsAddr ":0" this is how callers
// learn the picked port.
func (e *Engine) MetricsAddr() string {
	e.obs.srvMu.Lock()
	defer e.obs.srvMu.Unlock()
	if e.obs.ln == nil {
		return ""
	}
	return e.obs.ln.Addr().String()
}

// Close releases the engine's background resources (the metrics endpoint).
// Engines without one need no Close; calling it anyway is a no-op.
func (e *Engine) Close() error {
	e.obs.srvMu.Lock()
	srv := e.obs.srv
	e.obs.srv, e.obs.ln = nil, nil
	e.obs.srvMu.Unlock()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// installTracer bridges the engine's fabrics into the lifecycle tracer: wire
// sends (and refusals) recorded by the simnet fabric become send/drop
// records, and on actor engines the discrete-event runtime records the full
// enqueue/start/end lifecycle with operation ids. Called after the load
// phase's collector reset, so traces cover measured work only.
func (e *Engine) installTracer(tr *asyncnet.Tracer) {
	e.net.SetTracer(func(ev simnet.TraceEvent) {
		rec := asyncnet.TraceRecord{
			At: ev.Depart, Kind: asyncnet.TraceSend, From: ev.From, To: ev.To,
			Msg: ev.Msg.Kind(), Size: ev.Msg.Size(), Wait: ev.Arrive - ev.Depart,
		}
		if ev.Err != nil {
			rec.Kind = asyncnet.TraceDrop
			rec.Note = ev.Err.Error()
		}
		tr.Record(rec)
	})
	if rt := e.Runtime(); rt != nil {
		rt.SetTracer(tr)
	}
}
