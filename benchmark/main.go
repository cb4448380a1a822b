// Command benchmark is the repository's one benchmark: four seeded workloads
// that drive core, ops, pgrid, plan/vql, qcache and asyncnet from outside,
// through their public functions only, check every answer and print the
// end-to-end metrics (or, with -trace 1, the per-layer table). See README.md.
//
//	go run -C benchmark . -workload cold_similar -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the op counts are sized so
// the five timed rounds take about this long on the reference box.
const defaultSeconds = 20

// metricDef names one printed metric. BENCHMARK.json lists the same names and
// units (a unit test compares them).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"alloc_kb_per_op", "KiB"}, {"live_heap_mib", "MiB"},
	{"msgs_per_op", "count"}, {"wire_kb_per_op", "KiB"}, {"hops_per_op", "count"},
	{"vlat_p50_ms", "ms"}, {"vlat_p95_ms", "ms"},
}

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	repeat       int
	updateGolden bool
	dir          string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: cold_similar, cold_similar_c2, vql_mix_actor or live_zipf_rw")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the op schedule (needles, initiators, op classes, literals)")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "run length the op counts are sized for")
	fs.IntVar(&o.trace, "trace", 0, "1 prints the per-layer table from a traced run and writes out/<workload>.trace.json")
	fs.IntVar(&o.repeat, "repeat", 0, "run every workload this many times in fresh processes and write SPREAD.json")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "record this run's fingerprints under golden/")
	fs.StringVar(&o.dir, "dir", ".", "the benchmark's directory (golden/, out/, SPREAD.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.repeat > 0 {
		if err := spread(o, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(o.workload)
	if w == nil || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr, "), -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	rep, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets up, warms up, runs the timed rounds and checks every
// answer. With -trace 1 it runs the traced round and the per-layer probes
// instead of the five timed rounds.
func runWorkload(w *workload, o options, out io.Writer) (*report, error) {
	// Every set-up runs on one P: core.Open of 1M postings spread +-18% at
	// GOMAXPROCS=2 on the shared 2-vCPU box and +-4% at 1.
	runtime.GOMAXPROCS(1)
	n := w.scheduleLen(o.seconds)
	sched := w.schedule(w, w.data(), o.seed, n)
	fmt.Fprintf(out, "workload %s seed %d seconds %d: %d ops/round x %d rounds, %d closed-loop client(s), gomaxprocs %d (set-up 1)\n",
		w.name, o.seed, o.seconds, n*w.repeat, rounds, w.clients, w.procs)

	setups := w.setups
	if o.trace == 1 {
		setups = 1
	}
	var su setup
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if su.eng != nil {
			if err := su.eng.Close(); err != nil {
				return nil, err
			}
			su = setup{} // drop the engine before the next set-up's forced collection
		}
		var err error
		if su, err = w.setUp(sched, o.trace == 1); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, su.total.Seconds())
	}
	defer func() {
		if su.eng != nil {
			su.eng.Close()
		}
	}()

	oracleStart := time.Now()
	chk := newChecker(len(sched), expectedAnswers(su.data, sched))
	oracleTime := time.Since(oracleStart)
	if !o.updateGolden {
		var err error
		if chk.golden, err = loadGolden(o.dir, w.name, o.seed, n); err != nil {
			return nil, err
		}
	}

	h := &harness{w: w, eng: su.eng}
	runtime.GOMAXPROCS(w.procs)
	warm := sched[:min(len(sched), warmUpOps)]
	chk.check(warm, h.runRound(warm)) // untimed

	var defs []metricDef
	var values map[string]float64
	if o.trace == 1 {
		var err error
		if values, err = traceRun(h, &su, sched, chk, o, oracleTime, out); err != nil {
			return nil, err
		}
		defs = perLayerMetrics
	} else {
		timed := make([]round, rounds)
		for i := range timed {
			timed[i] = h.timedRound(sched)
			chk.check(sched, timed[i])
		}
		runtime.GOMAXPROCS(1)
		values = endToEnd(setupTimes, timed, liveHeapMiB(su.eng))
		defs = endToEndMetrics
		rates := make([]float64, len(timed))
		for i, rd := range timed {
			rates[i] = rd.opsPerSecond()
		}
		p50, p95, cpuMS := wallDetail(timed)
		fmt.Fprintf(out, "set-ups %.3f s; rounds %.1f ops/s\n", setupTimes, rates)
		fmt.Fprintf(out, "not gated: lat_p50_ms %.4g, lat_p95_ms %.4g (%d ops beyond it), cpu_ms_per_op %.4g\n",
			p50, p95, n*w.repeat/20, cpuMS)
	}
	if o.updateGolden {
		if err := writeGolden(o.dir, w.name, o.seed, chk.first); err != nil {
			return nil, err
		}
	}

	rep := &report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(out, "%-42s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d\n", chk.attempted, chk.failed)
	if chk.failed > 0 {
		fmt.Fprintf(out, "first failure: %s\n", chk.firstErr)
	}
	return rep, nil
}
