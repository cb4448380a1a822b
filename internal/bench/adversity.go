package bench

// The recall-under-adversity sweep: how much of the stored data the overlay
// still answers correctly while its fabric drops messages and its membership
// churns, as a function of the replication degree.
//
// The ground truth for every lookup comes from a fault-free run of the
// paper's serial direct engine over the same build seed; the measured run
// executes the identical lookup schedule on the discrete-event actor engine
// with a seeded loss plan installed and Join/Leave churn interleaved, the
// grid's retry policy (retransmission, replica failover, degraded reads)
// enabled. Recall is the fraction of lookups whose result matches the
// fault-free answer. Every reported quantity is virtual-time-derived or a
// deterministic counter — no wall clocks — so the JSON export of a same-seed
// sweep is byte-identical across runs and machines.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// Adversity parametrizes the sweep.
type Adversity struct {
	// Peers is the overlay size (default 48).
	Peers int
	// Items is the number of stored postings (default 2000).
	Items int
	// Lookups is the number of measured exact lookups per point (default 400).
	Lookups int
	// Replications lists the replication degrees to sweep (default 1, 2, 3).
	Replications []int
	// DropRates lists the per-message loss probabilities (default 0, 0.01,
	// 0.05, 0.1, 0.2).
	DropRates []float64
	// ChurnMoves is the number of Join/Leave membership moves interleaved
	// with the lookups of each point (default 40).
	ChurnMoves int
	// Seed drives the build, the lookup schedule and the loss draws.
	Seed int64
	// Progress, if non-nil, receives one line per completed point.
	Progress func(string)
}

func (a *Adversity) normalize() {
	if a.Peers <= 0 {
		a.Peers = 48
	}
	if a.Items <= 0 {
		a.Items = 2000
	}
	if a.Lookups <= 0 {
		a.Lookups = 400
	}
	if len(a.Replications) == 0 {
		a.Replications = []int{1, 2, 3}
	}
	if len(a.DropRates) == 0 {
		a.DropRates = []float64{0, 0.01, 0.05, 0.1, 0.2}
	}
	if a.ChurnMoves < 0 {
		a.ChurnMoves = 0
	} else if a.ChurnMoves == 0 {
		a.ChurnMoves = 40
	}
	if a.Seed == 0 {
		a.Seed = 1
	}
}

// AdversityPoint is one measured (replication, drop rate) cell.
type AdversityPoint struct {
	Replication  int     `json:"replication"`
	DropRate     float64 `json:"drop_rate"`
	Lookups      int     `json:"lookups"`
	Found        int     `json:"found"`
	Recall       float64 `json:"recall"`
	Joins        int     `json:"joins"`
	Leaves       int     `json:"leaves"`
	Drops        int64   `json:"drops"`
	Retries      int64   `json:"retries"`
	Failovers    int64   `json:"failovers"`
	Unanswered   int64   `json:"unanswered"`
	FencedWrites int64   `json:"fenced_writes"`
	Messages     int64   `json:"messages"`
}

// Run executes the sweep: one fault-free direct grid per replication degree
// establishes the ground truth, then each drop rate replays the same lookup
// schedule on a lossy actor grid under churn.
func (a *Adversity) Run() ([]AdversityPoint, error) {
	a.normalize()
	var out []AdversityPoint
	for _, rep := range a.Replications {
		truth, err := a.groundTruth(rep)
		if err != nil {
			return nil, err
		}
		for _, drop := range a.DropRates {
			pt, err := a.measure(rep, drop, truth)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
			if a.Progress != nil {
				a.Progress(fmt.Sprintf("replication=%d drop=%.2f recall=%.4f retries=%d failovers=%d",
					pt.Replication, pt.DropRate, pt.Recall, pt.Retries, pt.Failovers))
			}
		}
	}
	return out, nil
}

// advKey and advPosting mirror the storage scheme of one synthetic posting
// per key: fixed-width keys (no stored key prefixes another) with unique OIDs.
func advKey(i int) keys.Key { return keys.StringKey(fmt.Sprintf("adv%06d", i)) }

func advPosting(i int) triples.Posting {
	return triples.Posting{
		Index:  triples.IndexAttrValue,
		Triple: triples.Triple{OID: fmt.Sprintf("o%d", i), Attr: "adv", Val: triples.Number(float64(i))},
	}
}

// buildGrid constructs one loaded overlay for the sweep.
func (a *Adversity) buildGrid(rep int, mode pgrid.ExecMode, retry bool) (*pgrid.Grid, *simnet.Network, error) {
	cfg := pgrid.DefaultConfig()
	cfg.Replication = rep
	cfg.Seed = a.Seed
	cfg.Exec = mode
	cfg.Retry = pgrid.RetryConfig{Enabled: retry}
	net := simnet.New(a.Peers)
	sample := make([]keys.Key, a.Items)
	entries := make([]pgrid.BulkEntry, a.Items)
	for i := range sample {
		sample[i] = advKey(i)
		entries[i] = pgrid.BulkEntry{Key: sample[i], Posting: advPosting(i)}
	}
	g, err := pgrid.Build(net, a.Peers, sample, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: building adversity grid (replication %d): %w", rep, err)
	}
	if err := g.BulkLoad(entries, 1); err != nil {
		return nil, nil, err
	}
	net.Collector().Reset()
	return g, net, nil
}

// schedule returns the key index of the l-th lookup. Initiators are drawn
// per-grid (RandomPeer skips tombstones); exact-lookup answers do not depend
// on the initiator, so schedules stay comparable across grids.
func (a *Adversity) schedule() []int {
	rng := newRand(a.Seed + 7)
	idx := make([]int, a.Lookups)
	for i := range idx {
		idx[i] = rng.Intn(a.Items)
	}
	return idx
}

// groundTruth runs the lookup schedule on a fault-free direct grid and
// returns the result fingerprint of each lookup.
func (a *Adversity) groundTruth(rep int) ([]string, error) {
	g, _, err := a.buildGrid(rep, pgrid.ExecChain, false)
	if err != nil {
		return nil, err
	}
	idx := a.schedule()
	truth := make([]string, len(idx))
	for l, i := range idx {
		var tally metrics.Tally
		res, err := g.Lookup(&tally, g.RandomPeer(), advKey(i))
		if err != nil {
			return nil, fmt.Errorf("bench: fault-free ground truth lookup %d: %w", l, err)
		}
		truth[l] = fingerprint(res)
		if truth[l] != advPosting(i).Triple.OID {
			return nil, fmt.Errorf("bench: fault-free grid answered lookup %d with %q, want %q",
				l, truth[l], advPosting(i).Triple.OID)
		}
	}
	return truth, nil
}

// measure replays the schedule on a lossy actor grid with churn interleaved.
func (a *Adversity) measure(rep int, drop float64, truth []string) (AdversityPoint, error) {
	g, net, err := a.buildGrid(rep, pgrid.ExecActor, true)
	if err != nil {
		return AdversityPoint{}, err
	}
	if drop > 0 {
		net.SetFaults(&simnet.FaultPlan{
			DropRate: drop,
			Seed:     uint64(a.Seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03,
		})
	}
	idx := a.schedule()
	pt := AdversityPoint{Replication: rep, DropRate: drop, Lookups: len(idx)}

	// Churn cadence: spread the moves evenly through the lookup stream so
	// epochs change while queries and their retries are in flight.
	churnEvery := 0
	if a.ChurnMoves > 0 {
		churnEvery = len(idx) / a.ChurnMoves
		if churnEvery < 1 {
			churnEvery = 1
		}
	}
	churnRng := newRand(a.Seed + 13)
	churn := func() error {
		if churnRng.Intn(2) == 0 {
			var tally metrics.Tally
			if _, err := g.Join(&tally); err != nil {
				return fmt.Errorf("bench: churn join: %w", err)
			}
			pt.Joins++
			return nil
		}
		var tally metrics.Tally
		switch err := g.Leave(&tally, g.RandomPeer()); {
		case err == nil:
			pt.Leaves++
		case errors.Is(err, pgrid.ErrSoleOwner), errors.Is(err, pgrid.ErrDeparted):
			// Sole owners must stay; tombstones cannot leave twice.
		default:
			return fmt.Errorf("bench: churn leave: %w", err)
		}
		return nil
	}

	var total metrics.Tally
	for l, i := range idx {
		if churnEvery > 0 && l%churnEvery == churnEvery-1 {
			if err := churn(); err != nil {
				return pt, err
			}
		}
		var tally metrics.Tally
		res, err := g.Lookup(&tally, g.RandomPeer(), advKey(i))
		if err != nil {
			// With the retry policy on, read failures degrade to empty
			// results; a surfaced error is an invariant violation.
			return pt, fmt.Errorf("bench: lossy lookup %d (drop %.2f): %w", l, drop, err)
		}
		if fingerprint(res) == truth[l] {
			pt.Found++
		}
		total.AddTally(tally)
	}
	pt.Recall = float64(pt.Found) / float64(pt.Lookups)
	s := g.RobustStats()
	pt.Drops = net.Drops()
	pt.Retries = s.Retries
	pt.Failovers = s.Failovers
	pt.Unanswered = s.Unanswered
	pt.FencedWrites = s.FencedWrites
	pt.Messages = total.Messages
	return pt, nil
}

// fingerprint canonicalizes a lookup result as its sorted OID list.
func fingerprint(ps []triples.Posting) string {
	oids := make([]string, len(ps))
	for i, p := range ps {
		oids[i] = p.Triple.OID
	}
	sort.Strings(oids)
	return strings.Join(oids, ",")
}

// AdversityJSON renders the sweep as deterministic, indented JSON: field
// order is fixed by the struct, every value is virtual-time-derived, so
// same-seed runs export byte-identical files.
func AdversityJSON(points []AdversityPoint) ([]byte, error) {
	b, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatAdversity renders the sweep as the aligned table gridsim prints:
// rows are drop rates, column groups are replication degrees.
func FormatAdversity(points []AdversityPoint) string {
	reps := map[int]bool{}
	drops := map[float64]bool{}
	byKey := map[string]AdversityPoint{}
	for _, p := range points {
		reps[p.Replication] = true
		drops[p.DropRate] = true
		byKey[fmt.Sprintf("%d/%g", p.Replication, p.DropRate)] = p
	}
	var rs []int
	for r := range reps {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	var ds []float64
	for d := range drops {
		ds = append(ds, d)
	}
	sort.Float64s(ds)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "drop")
	for _, r := range rs {
		fmt.Fprintf(&b, "%16s", fmt.Sprintf("recall(rep=%d)", r))
	}
	b.WriteString("\n")
	for _, d := range ds {
		fmt.Fprintf(&b, "%-8.2f", d)
		for _, r := range rs {
			fmt.Fprintf(&b, "%16.4f", byKey[fmt.Sprintf("%d/%g", r, d)].Recall)
		}
		b.WriteString("\n")
	}
	return b.String()
}
