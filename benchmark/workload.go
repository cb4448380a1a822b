package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pgrid"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// The datasets are the same for every -seed: the seed drives needles,
// initiators, op classes and literals, so set-up cost and the loaded state do
// not move with it.
const dataSeed = 1

// rounds is the number of timed rounds of a run; an untimed warm-up of the
// schedule's first warmUpOps ops precedes them.
const rounds = 5

// workload is one set of inputs the benchmark runs. Everything the program
// under test sees comes from data, config and schedule.
type workload struct {
	name string
	// clients is the number of closed-loop clients issuing the schedule:
	// client c takes ops c, c+clients, ...
	clients int
	// procs is GOMAXPROCS during the warm-up and timed rounds. Every set-up
	// runs at 1 (see README: the load spreads +-18% at 2 on a shared box).
	procs int
	// repeat is how many times one round issues the schedule.
	repeat int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// opsPerSecond sizes the schedule: one pass is opsPerSecond*seconds/rounds
	// ops, a fixed count for a given -seconds, so counts repeat exactly.
	// Calibrated on the 2-vCPU reference box so the five timed rounds take
	// about -seconds there.
	opsPerSecond float64
	// granule is the multiple the schedule length is rounded down to.
	granule int
	// attr is the string attribute the similarity reads and the per-layer
	// probes use.
	attr string

	data     func() []triples.Tuple
	config   func() core.Config
	schedule func(w *workload, data []triples.Tuple, seed int64, n int) []op
}

// scheduleLen is the number of ops of one pass over the schedule.
func (w *workload) scheduleLen(seconds int) int {
	n := int(w.opsPerSecond * float64(seconds) / rounds)
	n -= n % w.granule
	if n < w.granule {
		n = w.granule
	}
	return n
}

// workloads is the set BENCHMARK.json lists, where each one's reason for being
// here is recorded (and at length in README.md).
var workloads = []*workload{
	{
		name:    "cold_similar",
		clients: 1, procs: 1, repeat: 1, setups: 3, opsPerSecond: 87.5, granule: 10,
		attr: "word", data: coldData, config: coldConfig, schedule: similarSchedule,
	},
	{
		// cold_similar's engine, data and schedule from two goroutines.
		name:    "cold_similar_c2",
		clients: 2, procs: 2, repeat: 2, setups: 3, opsPerSecond: 87.5, granule: 10,
		attr: "word", data: coldData, config: coldConfig, schedule: similarSchedule,
	},
	{
		name:    "vql_mix_actor",
		clients: 2, procs: 1, repeat: 1, setups: 5, opsPerSecond: 60, granule: 12,
		attr: "name", data: carData, config: actorConfig, schedule: vqlSchedule,
	},
	{
		name:    "live_zipf_rw",
		clients: 1, procs: 1, repeat: 1, setups: 3, opsPerSecond: 150, granule: 2 * memberStride,
		attr: "word", data: wordData, config: liveConfig, schedule: liveSchedule,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func coldData() []triples.Tuple {
	// The titles are loaded and never queried: they make core.Open long
	// enough to resolve a load optimisation without slowing the ops.
	return append(dataset.StringTuples("word", "w", dataset.BibleWords(20000, dataSeed)),
		dataset.StringTuples("title", "t", dataset.PaintingTitles(16000, dataSeed+1))...)
}

func coldConfig() core.Config {
	return core.Config{Peers: 4096, Latency: asyncnet.DefaultLatency(dataSeed), LoadWorkers: 1}
}

func carData() []triples.Tuple {
	return append(dataset.Cars(4000, 400, dataSeed), dataset.Dealers(400, 0.2, dataSeed+1)...)
}

func actorConfig() core.Config {
	return core.Config{Peers: 1024, Latency: asyncnet.DefaultLatency(dataSeed), LoadWorkers: 1,
		Runtime: core.RuntimeActor, Service: 500 * time.Microsecond}
}

func wordData() []triples.Tuple {
	return dataset.StringTuples("word", "w", dataset.BibleWords(20000, dataSeed))
}

func liveConfig() core.Config {
	grid := pgrid.DefaultConfig()
	grid.Replication = 2
	return core.Config{Peers: 512, Grid: grid, Latency: asyncnet.DefaultLatency(dataSeed),
		LoadWorkers: 1, Cache: true}
}

// opKind says which public entry point an op calls.
type opKind uint8

const (
	opSimilar opKind = iota // Store.Similar(text, attr, d)
	opQuery                 // Engine.QueryFrom(text)
	opInsert                // Store.InsertTuple of the fresh tuple (oid, attr, text)
	opDelete                // Store.DeleteTriple of the tuple the insert before it wrote
	opJoin                  // Engine.Join
	opLeave                 // Engine.Leave(from) + Engine.RefreshRefs
)

var opKindNames = [...]string{"similar", "query", "insert", "delete", "join", "leave"}

// op is one generated input. from is the initiating peer (the peer asked to
// leave for opLeave); live workloads redraw it past tombstones at run time.
type op struct {
	kind  opKind
	from  simnet.NodeID
	text  string // needle, VQL text, or the written value
	attr  string
	d     int
	oid   string // written tuple's oid
	tmpl  int    // VQL template
	check bool   // read whose answer the brute-force oracle computes
}

func (o op) String() string {
	return fmt.Sprintf("%s from=%d d=%d tmpl=%d oid=%q attr=%q check=%t %q",
		opKindNames[o.kind], o.from, o.d, o.tmpl, o.oid, o.attr, o.check, o.text)
}

// formatSchedule is the byte form two schedules are compared by.
func formatSchedule(ops []op) string {
	var b strings.Builder
	for i, o := range ops {
		fmt.Fprintf(&b, "%d %s\n", i, o)
	}
	return b.String()
}

// value is one (oid, string value) pair of an attribute.
type value struct{ oid, val string }

// attrValues lists the string values of attr in data order.
func attrValues(data []triples.Tuple, attr string) []value {
	var out []value
	for _, tu := range data {
		for _, f := range tu.Fields {
			if f.Name == attr && f.Val.Kind == triples.KindString {
				out = append(out, value{tu.OID, f.Val.Str})
			}
		}
	}
	return out
}

// editOnce applies one seeded character edit (substitute, insert or delete).
func editOnce(rng *rand.Rand, s string) string {
	pos := rng.Intn(len(s))
	c := string(rune('a' + rng.Intn(26)))
	switch rng.Intn(3) {
	case 0:
		return s[:pos] + c + s[pos+1:]
	case 1:
		return s[:pos] + c + s[pos:]
	default:
		return s[:pos] + s[pos+1:]
	}
}

// markChecked samples one similarity read in ten for the brute-force oracle.
func markChecked(rng *rand.Rand, ops []op) {
	offset := rng.Intn(10)
	reads := 0
	for i := range ops {
		if ops[i].kind == opSimilar {
			ops[i].check = reads%10 == offset
			reads++
		}
	}
}

// similarSchedule draws n similarity reads over the workload's attribute.
// Needles are a stratified sample: the corpus is ordered by (length, value)
// and cut into n strata with one seeded draw each. The op classes — every
// second needle carries one edit, every fifth asks for d = 2 — run down the
// strata in a fixed rhythm from a seeded offset, so for every seed the costly
// d = 2 reads fall evenly over short and long needles; left to chance, the
// seed would decide how many long needles ask for d = 2, and bytes per op
// would move twice as much across seeds. The seed therefore moves which needle of a stratum is asked, by whom and in what
// order, but not the mix, so a metric compared across seeds moves by the
// program and not by the sample.
func similarSchedule(w *workload, data []triples.Tuple, seed int64, n int) []op {
	vals := attrValues(data, w.attr)
	sort.SliceStable(vals, func(i, j int) bool {
		if len(vals[i].val) != len(vals[j].val) {
			return len(vals[i].val) < len(vals[j].val)
		}
		return vals[i].val < vals[j].val
	})
	rng := rand.New(rand.NewSource(seed))
	peers := w.config().Peers
	classOffset := rng.Intn(10)
	ops := make([]op, n)
	for i := range ops {
		lo, hi := i*len(vals)/n, (i+1)*len(vals)/n
		needle := vals[lo+rng.Intn(hi-lo)].val
		if (i+classOffset)%2 == 1 {
			needle = editOnce(rng, needle)
		}
		d := 1
		if (i+classOffset)%5 == 4 {
			d = 2
		}
		ops[i] = op{kind: opSimilar, from: simnet.NodeID(rng.Intn(peers)), text: needle, attr: w.attr, d: d}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	markChecked(rng, ops)
	return ops
}

// The six VQL templates vql_mix_actor rotates.
const (
	tmplExact  = iota // exact match on name, joined to price
	tmplRange         // numeric dist range on hp
	tmplTopN          // ORDER BY ... LIMIT top-N under a price cap
	tmplDist          // instance-level dist(?n,'...') < 2
	tmplJoin          // the paper's car-dealer join with a similarity filter
	tmplSchema        // schema-level dist(?a,'dlrid') < 3
	numTemplates
)

var dlridSpellings = []string{"dlrid", "dleid", "dlrjd", "dlride", "drlid"}

// deck deals the numbers 0..size-1 in a seeded order and reshuffles when it
// runs out, so every literal of a pool is used equally often whatever the
// seed: the seed moves which op gets which literal, not the mix.
type deck struct {
	rng   *rand.Rand
	cards []int
}

func (d *deck) draw(size int) int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(size)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// vqlSchedule rotates the six templates; literals are dealt from seeded pools
// drawn from the data itself, so no query text repeats back to back.
func vqlSchedule(w *workload, data []triples.Tuple, seed int64, n int) []op {
	seen := map[string]bool{}
	var names []string // distinct car names (dealers have a name too, but no hp)
	for _, tu := range data {
		if _, isCar := tu.Get("hp"); !isCar {
			continue
		}
		if nm, _ := tu.Get("name"); !seen[nm.Str] {
			seen[nm.Str] = true
			names = append(names, nm.Str)
		}
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	peers := w.config().Peers
	// One deck per template and literal, so templates do not take each
	// other's cards.
	decks := make([][2]deck, numTemplates)
	for i := range decks {
		decks[i] = [2]deck{{rng: rng}, {rng: rng}}
	}
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: opQuery, from: simnet.NodeID(rng.Intn(peers)), tmpl: i % numTemplates}
		first, second := &decks[o.tmpl][0], &decks[o.tmpl][1]
		switch o.tmpl {
		case tmplExact:
			name := names[first.draw(len(names))]
			o.text = fmt.Sprintf(`SELECT ?o,?p WHERE { (?o,name,'%s') (?o,price,?p) }`, name)
			o.attr, o.d, o.check = name, 0, true
		case tmplRange:
			o.text = fmt.Sprintf(`SELECT ?n,?h WHERE { (?o,name,?n) (?o,hp,?h) FILTER (dist(?h,%d) <= %d) }`,
				80+10*first.draw(36)+rng.Intn(10), 2+second.draw(3))
		case tmplTopN:
			o.text = fmt.Sprintf(`SELECT ?n,?h,?p WHERE { (?o,name,?n) (?o,hp,?h) (?o,price,?p) FILTER (?p < %d) } ORDER BY ?h DESC LIMIT %d`,
				30000+1000*first.draw(60), 3+second.draw(5))
		case tmplDist:
			needle := editOnce(rng, names[first.draw(len(names))])
			o.text = fmt.Sprintf(`SELECT ?o,?n WHERE { (?o,name,?n) FILTER (dist(?n,'%s') < 2) }`, needle)
			o.attr, o.d, o.check = needle, 1, true
		case tmplJoin:
			o.text = fmt.Sprintf(`SELECT ?n,?h,?p,?dn,?a WHERE { (?x,dealer,?d) (?y,dlrid,?d) (?x,name,?n) (?x,hp,?h) (?x,price,?p) (?y,addr,?a) (?y,name,?dn) FILTER (?p < %d) FILTER (dist(?n,'%s') < 2) } ORDER BY ?h DESC LIMIT 5`,
				30000+1000*first.draw(60), names[second.draw(len(names))])
		case tmplSchema:
			o.text = fmt.Sprintf(`SELECT ?d,?a,?id WHERE { (?d,?a,?id) FILTER (dist(?a,'%s') < 3) } ORDER BY ?a NN 'dlrid' LIMIT %d`,
				dlridSpellings[first.draw(len(dlridSpellings))], 4+second.draw(8))
		}
		ops[i] = o
	}
	return ops
}

// Every writeStride-th op of live_zipf_rw is a write (2 %) and every
// memberStride-th a membership event (1 %), at fixed positions that never
// coincide: fixed positions keep the cache invalidation rhythm, and with it
// the hit ratio, the same for every seed. A pass is a multiple of
// 2*memberStride ops (the workload's granule), so it holds as many leaves as
// joins and as many deletes as inserts and ends with the live peer count and
// the store where it began.
const (
	writeStride  = 50
	writeOffset  = 25
	memberStride = 100
	memberOffset = 50
)

// zipfDeal returns n ranks below size whose frequencies follow Zipf(s) as
// exactly as n allows — systematic sampling of the distribution's CDF with
// one seeded offset — in a seeded order. An independent draw per op would let
// the seed decide how often the hottest needles are asked, and with that the
// hit ratio; dealing leaves the seed the order and the choice in the tail.
func zipfDeal(rng *rand.Rand, s float64, size, n int) []int {
	cdf := make([]float64, size)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	offset := rng.Float64()
	ranks := make([]int, n)
	r := 0
	for j := range ranks {
		u := (float64(j) + offset) / float64(n) * sum
		for r < size-1 && cdf[r] < u {
			r++
		}
		ranks[j] = r
	}
	rng.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	return ranks
}

// liveSchedule mixes Zipf(1.1) reads with writes and membership events.
// Needle ranks index the corpus in data order, so which words are hot is a
// property of the dataset and the seed draws the request sequence. Writes
// alternate an insert of a fresh tuple and the delete of that tuple, and
// membership events a join and a leave (of the live peer at or after a seeded
// id, followed by RefreshRefs), so every pass over the schedule returns the
// store and the live peer count to where they were.
func liveSchedule(w *workload, data []triples.Tuple, seed int64, n int) []op {
	vals := attrValues(data, w.attr)
	rng := rand.New(rand.NewSource(seed))
	ranks := zipfDeal(rng, 1.1, len(vals), n)
	peers := w.config().Peers
	ops := make([]op, n)
	var written op
	nWrite, nMember := 0, 0
	for i := range ops {
		from := simnet.NodeID(rng.Intn(peers))
		word := vals[ranks[i]].val
		switch {
		case i%writeStride == writeOffset:
			if nWrite%2 == 0 {
				written = op{kind: opInsert, attr: w.attr, oid: fmt.Sprintf("live%06d", nWrite/2),
					text: editOnce(rng, word)}
			} else {
				written.kind = opDelete
			}
			written.from = from
			ops[i] = written
			nWrite++
		case i%memberStride == memberOffset:
			ops[i] = op{kind: opJoin, from: from}
			if nMember%2 == 1 {
				ops[i].kind = opLeave
			}
			nMember++
		default:
			ops[i] = op{kind: opSimilar, from: from, text: word, attr: w.attr, d: 1}
		}
	}
	markChecked(rng, ops)
	return ops
}
