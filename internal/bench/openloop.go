// Open-loop workload driver: Poisson arrivals with a Zipf-skewed needle
// population, swept over offered rates to locate the saturation knee.
//
// A closed loop couples arrivals to completions — a slow system throttles
// its own offered load. The open-loop model removes that coupling: queries
// arrive on the overlay's virtual timeline at exponentially distributed
// interarrival times regardless of how far behind the system is, so past
// the knee the sojourn percentiles diverge instead of plateauing. Each
// arrival is one client body pre-seeded to its arrival instant
// (bench.issueQuery); on the actor engine all arrivals share the one
// discrete-event timeline and contend in peer mailboxes. Zipf needle skew is
// what makes the initiator-side caches earn their keep: the hot needles and
// their probe keys answer locally after the first miss.
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simnet"
)

// OpenLoopWorkload parametrizes the open-loop sweep.
type OpenLoopWorkload struct {
	// Attr is the column the corpus is stored under (default "word").
	Attr string
	// Arrivals is the number of query arrivals per rate point (default 64).
	Arrivals int
	// Distance is the similarity distance of each query (default 1).
	Distance int
	// Method selects the similarity method (default q-grams).
	Method ops.Method
	// Seed drives the arrival/needle/initiator schedule (default 1).
	Seed int64
	// ZipfS skews the needle popularity: 0 draws needles uniformly, values
	// above 1 draw corpus ranks from a Zipf(s) distribution (rank 0 hottest,
	// the standard cache-workload shape). Values in (0, 1] are rejected —
	// math/rand's Zipf sampler requires s > 1.
	ZipfS float64
}

func (w *OpenLoopWorkload) normalize() error {
	if w.Attr == "" {
		w.Attr = "word"
	}
	if w.Arrivals <= 0 {
		w.Arrivals = 64
	}
	if w.Distance <= 0 {
		w.Distance = 1
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	if w.ZipfS != 0 && w.ZipfS <= 1 {
		return fmt.Errorf("bench: zipf exponent %g must be 0 (uniform) or > 1", w.ZipfS)
	}
	return nil
}

// OpenLoopPoint is one open-loop measurement at a fixed offered rate.
type OpenLoopPoint struct {
	// RatePerSec is the offered arrival rate (queries per simulated second).
	RatePerSec float64
	// Queries is the number of completed queries (= arrivals on success).
	Queries int
	// Messages and Bytes sum the per-query costs over the point's queries;
	// with caching enabled they shrink as the hot set warms.
	Messages int64
	Bytes    int64
	// MakespanUS is the virtual time from the first arrival to the last
	// completion (µs); ThroughputQPS is Queries over that span, in queries
	// per simulated second. Below the knee it tracks the offered rate;
	// past it, it flattens at the service capacity while sojourn grows.
	MakespanUS    int64
	ThroughputQPS float64
	// Sojourn percentiles: arrival to completion on the virtual timeline
	// (µs), the open-loop response-time measure (queueing included).
	MeanSojournUS, P50SojournUS, P95SojournUS, MaxSojournUS float64
	// QueueTotalUS sums every query's mailbox waiting time (µs).
	QueueTotalUS int64
	MeanQueueUS  float64
	// HottestPeer is the peer that accrued the most service (busy) time
	// during this point's queries, and HottestShare its fraction of the
	// point's total busy time across all peers. Only actor engines attribute
	// busy time; direct engines leave HottestPeer at -1 and HottestShare at 0.
	HottestPeer  simnet.NodeID
	HottestShare float64
	// Cache is the point's initiator-cache counter delta (zero-valued when
	// caching is disabled).
	Cache ops.CacheStats
}

// OpenLoop sweeps offered arrival rates over one loaded engine. Every rate
// point draws its own seeded arrival schedule (times, needles, initiators),
// then injects each arrival as one concurrent client body pre-seeded to its
// arrival instant. On actor engines the bodies contend on the shared
// discrete-event timeline, which is where the saturation knee comes from;
// direct engines model no cross-query contention, so their sojourns stay
// flat and only the cache effects respond to the rate.
//
// Needle and initiator draws are rate-invariant (the rate scales arrival
// times only), so every point asks the identical questions and points are
// comparable. With caching enabled, hot probe keys hit as soon as their
// first fetch completes, shrinking a point's wire volume from within; whole
// cached answers hit once a prior point (or prior caller) answered the same
// question — arrivals of one point overlap in flight, so they answer
// independently, exactly like the uncached system would.
func OpenLoop(eng *core.Engine, corpus []string, ratesPerSec []float64, w OpenLoopWorkload) ([]OpenLoopPoint, error) {
	if err := w.normalize(); err != nil {
		return nil, err
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("bench: empty corpus")
	}
	peers := eng.Grid().PeerCount()
	var out []OpenLoopPoint
	for _, rate := range ratesPerSec {
		if rate <= 0 {
			return nil, fmt.Errorf("bench: arrival rate %g <= 0", rate)
		}
		type arrival struct {
			atUS   int64
			needle string
			from   simnet.NodeID
		}
		rng := newRand(w.Seed)
		var zipf *rand.Zipf
		if w.ZipfS > 1 {
			zipf = rand.NewZipf(rng, w.ZipfS, 1, uint64(len(corpus)-1))
		}
		sched := make([]arrival, w.Arrivals)
		var clock float64
		for i := range sched {
			// Exponential interarrivals at `rate` per simulated second.
			clock += rng.ExpFloat64() / rate * 1e6
			idx := rng.Intn(len(corpus))
			if zipf != nil {
				idx = int(zipf.Uint64())
			}
			sched[i] = arrival{
				atUS:   int64(clock),
				needle: corpus[idx],
				from:   simnet.NodeID(rng.Intn(peers)),
			}
		}

		var (
			mu       sync.Mutex
			firstErr error
			pt       = OpenLoopPoint{RatePerSec: rate, HottestPeer: -1}
			sojHist  = metrics.NewHistogram(metrics.LatencyBounds())
			firstUS  = sched[0].atUS
			makespan int64
		)
		loadBefore := peerLoadSnapshot(eng)
		cacheBefore := eng.Store().CacheStats()
		opts := ops.SimilarOptions{Method: w.Method, NoShortFallback: true}
		eng.Concurrent(len(sched), func(i int) {
			a := sched[i]
			var ct metrics.Tally // one arrival = one fresh timeline
			d, err := issueQuery(eng, &ct, a.from, a.needle, w.Attr, w.Distance, opts, a.atUS)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("bench: rate=%g arrival %d similar(%q): %w",
					rate, i, a.needle, err)
			}
			pt.Queries++
			pt.Messages += d.Messages
			pt.Bytes += d.Bytes
			pt.QueueTotalUS += d.Queue
			sojHist.Observe(float64(d.Latency))
			if end := ct.PathEnd(); end > makespan {
				makespan = end
			}
			mu.Unlock()
		})
		if firstErr != nil {
			return nil, firstErr
		}
		pt.MakespanUS = makespan
		if span := makespan - firstUS; span > 0 {
			pt.ThroughputQPS = float64(pt.Queries) / (float64(span) / 1e6)
		}
		pt.MeanSojournUS = sojHist.Mean()
		pt.P50SojournUS = sojHist.Quantile(0.5)
		pt.P95SojournUS = sojHist.Quantile(0.95)
		pt.MaxSojournUS = sojHist.Max()
		if pt.Queries > 0 {
			pt.MeanQueueUS = float64(pt.QueueTotalUS) / float64(pt.Queries)
		}
		pt.HottestPeer, pt.HottestShare = hottestPeer(eng, loadBefore)
		pt.Cache = eng.Store().CacheStats().Sub(cacheBefore)
		out = append(out, pt)
	}
	return out, nil
}

// FormatOpenLoop renders the sweep as an aligned offered-rate table; the knee
// is where throughput stops tracking the offered rate and p95 sojourn takes
// off.
func FormatOpenLoop(points []OpenLoopPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-10s %-10s %-12s %-12s %-12s %-10s %s\n",
		"rate/s", "queries", "thru/s", "msgs", "mean-soj", "p95-soj", "makespan", "hit%", "hottest")
	for _, p := range points {
		hottest := "-"
		if p.HottestPeer >= 0 {
			hottest = fmt.Sprintf("peer %d (%.1f%%)", p.HottestPeer, 100*p.HottestShare)
		}
		hit := "-"
		if lookups := p.Cache.Postings.Hits + p.Cache.Postings.Misses +
			p.Cache.Results.Hits + p.Cache.Results.Misses; lookups > 0 {
			hit = fmt.Sprintf("%.0f/%.0f", 100*p.Cache.Postings.HitRatio(), 100*p.Cache.Results.HitRatio())
		}
		fmt.Fprintf(&b, "%-10.1f %-8d %-10.1f %-10d %-12s %-12s %-12s %-10s %s\n",
			p.RatePerSec, p.Queries, p.ThroughputQPS, p.Messages,
			ms(p.MeanSojournUS), ms(p.P95SojournUS), ms(float64(p.MakespanUS)), hit, hottest)
	}
	return b.String()
}
