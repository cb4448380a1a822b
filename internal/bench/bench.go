// Package bench implements the paper's evaluation harness (Section 6).
//
// The experiment: for a string corpus and a sweep of network sizes, execute a
// mix of six queries — three top-N queries (the N = 5, 10, 15 nearest
// neighbours of a random needle, up to maximal distance 5) and three
// similarity self-joins over one column (join distances d = 1, 2, 3) — each
// initiated repeatedly from random peers with random needles, under each of
// the three evaluation methods (naive strings, q-grams, q-samples), measuring
// the number of messages and the transferred data volume. Figure 1(a-d)
// plots these series for the bible-words and painting-titles corpora.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// Workload parametrizes the query mix. The paper under-specifies the join
// cardinality; JoinLeftLimit makes the choice explicit and EXPERIMENTS.md
// records it.
type Workload struct {
	// TopNs are the top-N sizes (default 5, 10, 15).
	TopNs []int
	// MaxDist caps the nearest-neighbour search (default 5).
	MaxDist int
	// JoinDists are the self-join distances (default 1, 2, 3).
	JoinDists []int
	// JoinLeftLimit bounds each join's left side (default 10).
	JoinLeftLimit int
	// Repeats is the number of mix initiations averaged per point
	// (default 40, as in the paper).
	Repeats int
	// Seed drives needle and initiator selection.
	Seed int64
	// Exact enables the short-string completeness fallback during the
	// measured queries. Off by default: the paper's Algorithm 2 has no such
	// fallback, and the fallback's scan adds a linear-in-peers component to
	// the gram methods that the paper's curves do not contain. The A4
	// ablation quantifies the difference.
	Exact bool
}

func (w *Workload) normalize() {
	if len(w.TopNs) == 0 {
		w.TopNs = []int{5, 10, 15}
	}
	if w.MaxDist <= 0 {
		w.MaxDist = 5
	}
	if len(w.JoinDists) == 0 {
		w.JoinDists = []int{1, 2, 3}
	}
	if w.JoinLeftLimit <= 0 {
		w.JoinLeftLimit = 10
	}
	if w.Repeats <= 0 {
		w.Repeats = 40
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
}

// Point is one measured figure point: the mean cost of one whole query mix
// (six queries) at a given network size under one method.
type Point struct {
	Peers    int
	Method   ops.Method
	Messages float64
	Bytes    float64
	Queries  int
}

// Experiment sweeps network sizes for one corpus.
type Experiment struct {
	// Corpus is the string dataset (bible words or painting titles).
	Corpus []string
	// Attr is the column name the corpus is stored under.
	Attr string
	// Peers lists the network sizes to sweep.
	Peers []int
	// Methods lists the evaluation strategies (default all three).
	Methods []ops.Method
	// Workload is the query mix.
	Workload Workload
	// Grid overrides overlay construction (default pgrid.DefaultConfig).
	Grid pgrid.Config
	// Store overrides the storage scheme.
	Store ops.StoreConfig
	// Progress, if non-nil, receives one line per completed point.
	Progress func(string)
}

func (e *Experiment) normalize() {
	if e.Attr == "" {
		e.Attr = "word"
	}
	if len(e.Methods) == 0 {
		e.Methods = []ops.Method{ops.MethodQSamples, ops.MethodQGrams, ops.MethodNaive}
	}
	if e.Grid.RefsPerLevel == 0 && e.Grid.Replication == 0 {
		e.Grid = pgrid.DefaultConfig()
	}
	e.Workload.normalize()
}

// Run executes the sweep and returns one point per (peers, method).
func (e *Experiment) Run() ([]Point, error) {
	e.normalize()
	tuples := dataset.StringTuples(e.Attr, "o", e.Corpus)
	var out []Point
	for _, peers := range e.Peers {
		eng, err := core.Open(tuples, core.Config{Peers: peers, Grid: e.Grid, Store: e.Store})
		if err != nil {
			return nil, fmt.Errorf("bench: building %d-peer grid: %w", peers, err)
		}
		// One deterministic needle/initiator schedule shared by all
		// methods so they answer identical queries.
		mixes := e.schedule(eng, peers)
		for _, m := range e.Methods {
			pt, err := e.measure(eng, m, mixes)
			if err != nil {
				return nil, err
			}
			pt.Peers = peers
			out = append(out, pt)
			if e.Progress != nil {
				e.Progress(fmt.Sprintf("peers=%d method=%s messages=%.1f bytes=%.1f",
					peers, m, pt.Messages, pt.Bytes))
			}
		}
	}
	return out, nil
}

// mix is one scheduled initiation: a needle and an initiator per query.
type mix struct {
	topNeedles  []string
	joinFroms   []simnet.NodeID
	topFroms    []simnet.NodeID
	joinOffsets []int
}

// schedule draws Repeats mixes: random needles from the corpus and random
// initiating peers, as in Section 6 ("we chose the initiating peer as well as
// the search string (from the set of all strings) of each query randomly").
func (e *Experiment) schedule(eng *core.Engine, peers int) []mix {
	rng := newRand(e.Workload.Seed)
	mixes := make([]mix, e.Workload.Repeats)
	for i := range mixes {
		m := &mixes[i]
		for range e.Workload.TopNs {
			m.topNeedles = append(m.topNeedles, e.Corpus[rng.Intn(len(e.Corpus))])
			m.topFroms = append(m.topFroms, simnet.NodeID(rng.Intn(peers)))
		}
		for range e.Workload.JoinDists {
			m.joinFroms = append(m.joinFroms, simnet.NodeID(rng.Intn(peers)))
			m.joinOffsets = append(m.joinOffsets, rng.Intn(len(e.Corpus)))
		}
	}
	return mixes
}

// measure runs every scheduled mix under one method and averages the cost.
func (e *Experiment) measure(eng *core.Engine, method ops.Method, mixes []mix) (Point, error) {
	w := e.Workload
	opts := ops.SimilarOptions{Method: method, NoShortFallback: !w.Exact}
	var totalMsgs, totalBytes float64
	queries := 0
	for _, m := range mixes {
		var tally metrics.Tally
		for qi, n := range w.TopNs {
			_, err := eng.Store().TopNString(&tally, m.topFroms[qi], e.Attr, m.topNeedles[qi],
				n, w.MaxDist, ops.TopNOptions{Similar: opts})
			if err != nil {
				return Point{}, fmt.Errorf("bench: top-%d (%s): %w", n, method, err)
			}
			queries++
		}
		for qi, d := range w.JoinDists {
			_, err := eng.Store().SimJoin(&tally, m.joinFroms[qi], e.Attr, e.Attr, d,
				ops.JoinOptions{Similar: opts, LeftLimit: w.JoinLeftLimit})
			if err != nil {
				return Point{}, fmt.Errorf("bench: join d=%d (%s): %w", d, method, err)
			}
			queries++
		}
		totalMsgs += float64(tally.Messages)
		totalBytes += float64(tally.Bytes)
	}
	n := float64(len(mixes))
	return Point{Method: method, Messages: totalMsgs / n, Bytes: totalBytes / n, Queries: queries}, nil
}

// FormatSeries renders points as the aligned table cmd/figures prints: one
// row per network size, one column pair per method.
func FormatSeries(points []Point, metric string) string {
	methods, peers := axes(points)
	byKey := map[string]Point{}
	for _, p := range points {
		byKey[fmt.Sprintf("%d/%s", p.Peers, p.Method)] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "peers")
	for _, m := range methods {
		fmt.Fprintf(&b, "%14s", m.String())
	}
	b.WriteString("\n")
	for _, n := range peers {
		fmt.Fprintf(&b, "%-10d", n)
		for _, m := range methods {
			p := byKey[fmt.Sprintf("%d/%s", n, m)]
			v := p.Messages
			if metric == "bytes" {
				v = p.Bytes
			}
			fmt.Fprintf(&b, "%14.1f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders points as comma-separated values (peers,method,messages,bytes).
func CSV(points []Point) string {
	var b strings.Builder
	b.WriteString("peers,method,messages,bytes\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%d,%s,%.2f,%.2f\n", p.Peers, p.Method, p.Messages, p.Bytes)
	}
	return b.String()
}

func axes(points []Point) ([]ops.Method, []int) {
	mset := map[ops.Method]bool{}
	pset := map[int]bool{}
	for _, p := range points {
		mset[p.Method] = true
		pset[p.Peers] = true
	}
	var methods []ops.Method
	for m := range mset {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i] < methods[j] })
	var peers []int
	for p := range pset {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	return methods, peers
}

// SearchCostPoint is one measurement of experiment E2 (the Section 2 claim
// that expected search cost is ~0.5*log2 N messages).
type SearchCostPoint struct {
	Peers    int
	Leaves   int
	AvgHops  float64
	HalfLogN float64
}

// SearchCost measures average routing hops of random exact lookups across
// network sizes.
func SearchCost(corpus []string, peersList []int, lookups int, seed int64) ([]SearchCostPoint, error) {
	tuples := dataset.StringTuples("word", "o", corpus)
	var out []SearchCostPoint
	for _, peers := range peersList {
		eng, err := core.Open(tuples, core.Config{Peers: peers})
		if err != nil {
			return nil, err
		}
		rng := newRand(seed)
		var hops int64
		for i := 0; i < lookups; i++ {
			var tally metrics.Tally
			needle := corpus[rng.Intn(len(corpus))]
			from := simnet.NodeID(rng.Intn(peers))
			if _, err := eng.Store().SelectEq(&tally, from, "word", triples.String(needle)); err != nil {
				return nil, err
			}
			// Subtract the result message: hops = forwards only.
			if tally.Messages > 0 {
				hops += tally.Messages - 1
			}
		}
		leaves := eng.Grid().LeafCount()
		out = append(out, SearchCostPoint{
			Peers:    peers,
			Leaves:   leaves,
			AvgHops:  float64(hops) / float64(lookups),
			HalfLogN: 0.5 * math.Log2(float64(leaves)),
		})
	}
	return out, nil
}

// QueryMix exposes the default mix for tools that want to run it standalone
// (e.g. vqlsh's \bench command).
func QueryMix() Workload {
	var w Workload
	w.normalize()
	return w
}

// RunMixObserved executes one initiation of the query mix (three top-N
// queries plus three self-joins) on an already-loaded engine and returns its
// cost. Each query of the mix runs on its own tally (so latency and hop
// measures are per query, not chained across the mix) and observe, when
// non-nil, receives it. The returned total sums the counters and max-folds
// the path measures.
func RunMixObserved(eng *core.Engine, attr string, corpus []string, w Workload,
	method ops.Method, seed int64, observe func(metrics.Tally)) (metrics.Tally, error) {

	w.normalize()
	rng := newRand(seed)
	grid := eng.Grid()
	peers := grid.PeerCount()
	// The id space includes tombstones of departed peers (ids are never
	// reused); redraw so the initiator is always a current member — a real
	// client would not issue queries from a peer that left the overlay.
	initiator := func() simnet.NodeID {
		for {
			id := simnet.NodeID(rng.Intn(peers))
			if _, err := grid.Peer(id); err == nil {
				return id
			}
		}
	}
	opts := ops.SimilarOptions{Method: method, NoShortFallback: !w.Exact}
	var total metrics.Tally
	done := func(qt *metrics.Tally) {
		if observe != nil {
			observe(*qt)
		}
		total.AddTally(*qt)
	}
	for _, n := range w.TopNs {
		needle := corpus[rng.Intn(len(corpus))]
		from := initiator()
		var qt metrics.Tally
		if _, err := eng.Store().TopNString(&qt, from, attr, needle, n, w.MaxDist,
			ops.TopNOptions{Similar: opts}); err != nil {
			return total, err
		}
		done(&qt)
	}
	for _, d := range w.JoinDists {
		from := initiator()
		var qt metrics.Tally
		if _, err := eng.Store().SimJoin(&qt, from, attr, attr, d,
			ops.JoinOptions{Similar: opts, LeftLimit: w.JoinLeftLimit}); err != nil {
			return total, err
		}
		done(&qt)
	}
	return total, nil
}

// newRand builds the seeded source all schedules use.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RowReconstructionPoint is one measurement of experiment E3, probing the
// Section 8 claim that row reconstruction costs O(log N) messages with
// additional cost linear in the number of attribute columns. In this
// implementation the oid index answers a whole row from one partition, so the
// *message* count stays ~constant in the width while the transferred *bytes*
// grow linearly — a strictly better constant than the paper's per-column
// bound, recorded as such in EXPERIMENTS.md.
type RowReconstructionPoint struct {
	Attrs    int
	Messages float64
	Bytes    float64
}

// RowReconstruction loads tuples with varying attribute counts and measures
// the cost of object reconstruction per tuple width.
func RowReconstruction(attrCounts []int, peers, tuplesPerWidth int, seed int64) ([]RowReconstructionPoint, error) {
	var data []triples.Tuple
	rng := newRand(seed)
	oidsByWidth := map[int][]string{}
	for _, k := range attrCounts {
		for i := 0; i < tuplesPerWidth; i++ {
			oid := fmt.Sprintf("w%02d-%04d", k, i)
			tu := triples.Tuple{OID: oid}
			for a := 0; a < k; a++ {
				tu.Fields = append(tu.Fields, triples.Field{
					Name: fmt.Sprintf("attr%02d", a),
					Val:  triples.Number(float64(rng.Intn(100000))),
				})
			}
			data = append(data, tu)
			oidsByWidth[k] = append(oidsByWidth[k], oid)
		}
	}
	eng, err := core.Open(data, core.Config{Peers: peers})
	if err != nil {
		return nil, err
	}
	var out []RowReconstructionPoint
	for _, k := range attrCounts {
		var tally metrics.Tally
		for _, oid := range oidsByWidth[k] {
			if _, err := eng.Store().LookupObject(&tally, eng.Grid().RandomPeer(), oid); err != nil {
				return nil, err
			}
		}
		out = append(out, RowReconstructionPoint{
			Attrs:    k,
			Messages: float64(tally.Messages) / float64(tuplesPerWidth),
			Bytes:    float64(tally.Bytes) / float64(tuplesPerWidth),
		})
	}
	return out, nil
}
