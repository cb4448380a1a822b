package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/triples"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

func TestMedianOfRoundsIgnoresOneDisturbedRound(t *testing.T) {
	mk := func(ms ...int) round {
		rd := round{wall: time.Second}
		for _, m := range ms {
			rd.results = append(rd.results, result{lat: time.Duration(m) * time.Millisecond})
		}
		return rd
	}
	timed := []round{mk(1, 2, 3), mk(1, 2, 3), mk(100, 200, 300), mk(1, 2, 3), mk(1, 2, 4)}
	lat := opLatenciesMS(timed)
	if len(lat) != 3 || lat[0] != 1 || lat[1] != 2 || lat[2] != 3 {
		t.Errorf("per-op medians over the rounds = %v, want [1 2 3]", lat)
	}
	if got := medianOfRounds(timed, round.opsPerSecond); got != 3 {
		t.Errorf("median of per-round ops/s = %v, want 3", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3,1,4,1,5,9,2,6], n=4) == [1.25, 3.5, 5.75].
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %v, %v, want 1.25, 5.75", q1, q3)
	}
}

func TestSameSeedSameScheduleOtherSeedOtherSchedule(t *testing.T) {
	for _, w := range workloads {
		data := smallData(w)
		n := w.scheduleLen(2)
		a := formatSchedule(w.schedule(w, data, 7, n))
		b := formatSchedule(w.schedule(w, data, 7, n))
		c := formatSchedule(w.schedule(w, data, 8, n))
		if a != b {
			t.Errorf("%s: the same seed gave two schedules", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if got := strings.Count(a, "\n"); got != n {
			t.Errorf("%s: schedule has %d ops, want %d", w.name, got, n)
		}
	}
}

// The schedule at the default run length, and the warm-up prefix of it, must
// hold every kind of op live_zipf_rw is there for and undo each of them:
// every insert deleted again, as many leaves as joins.
func TestLiveScheduleHoldsEveryOpKindAndReturnsToBaseline(t *testing.T) {
	w := findWorkload("live_zipf_rw")
	sched := w.schedule(w, smallData(w), 3, w.scheduleLen(defaultSeconds))
	for _, part := range [][]op{sched, sched[:warmUpOps]} {
		live := map[string]bool{}
		kinds := map[opKind]int{}
		for _, o := range part {
			kinds[o.kind]++
			switch o.kind {
			case opInsert:
				live[o.oid] = true
			case opDelete:
				if !live[o.oid] {
					t.Fatalf("delete of %s before its insert", o.oid)
				}
				delete(live, o.oid)
			}
		}
		if len(live) != 0 {
			t.Errorf("%d ops: %d inserted tuples are never deleted", len(part), len(live))
		}
		for _, k := range []opKind{opSimilar, opInsert, opDelete, opJoin, opLeave} {
			if kinds[k] == 0 {
				t.Errorf("%d ops: no %s op", len(part), opKindNames[k])
			}
		}
		if kinds[opJoin] != kinds[opLeave] {
			t.Errorf("%d ops: %d joins and %d leaves", len(part), kinds[opJoin], kinds[opLeave])
		}
	}
}

func TestSpanSelfTimeIsDurationMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", start: 0, end: 10 * ms, parent: -1},
		{name: "a", start: 1 * ms, end: 4 * ms, parent: 0},
		{name: "b", start: 5 * ms, end: 9 * ms, parent: 0},
		{name: "b.inner", start: 6 * ms, end: 7 * ms, parent: 2},
	}
	want := []time.Duration{3 * ms, 3 * ms, 3 * ms, 1 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got, want[i])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0, -1)) // the untraced rounds run on a nil tracer
}

func TestBenchmarkFileListsExactlyThePrintedMetrics(t *testing.T) {
	bf, err := readBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	compare := func(kind string, listed []boundedMetric, printed []metricDef) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(printed))
			return
		}
		for i, d := range printed {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s: %q (%q) is outside the allowed characters", kind, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEndMetrics)
	compare("per_layer", bf.PerLayer, perLayerMetrics)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, bf.Workloads[i].Name, w.name)
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
}

// smallData is a cut-down dataset with the attributes the workload's
// schedule reads, so schedule tests need no 36 000-tuple corpus.
func smallData(w *workload) []triples.Tuple {
	if w.attr == "name" {
		return append(dataset.Cars(200, 20, 1), dataset.Dealers(20, 0.2, 2)...)
	}
	return dataset.StringTuples("word", "w", dataset.BibleWords(1500, 1))
}

// tiny shrinks a workload to a few hundred tuples on 64 peers, keeping its
// executor, clients, cache setting and schedule generator.
func tiny(name string) *workload {
	w := *findWorkload(name)
	full := w.config()
	w.setups, w.opsPerSecond = 1, 10
	w.data = func() []triples.Tuple { return smallData(&w) }
	w.config = func() core.Config {
		cfg := full
		cfg.Peers = 64
		cfg.Latency = asyncnet.DefaultLatency(1)
		return cfg
	}
	return &w
}

func TestTinyWorkloadsRunCleanAndRepeatTheirCounts(t *testing.T) {
	for _, name := range []string{"cold_similar_c2", "vql_mix_actor", "live_zipf_rw"} {
		w := tiny(name)
		var reps [2]*report
		for i := range reps {
			var out bytes.Buffer
			rep, err := runWorkload(w, options{seed: 2, seconds: 10, updateGolden: true, dir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s: %d of %d ops failed\n%s", name, rep.Failed, rep.Attempted, out.String())
			}
			reps[i] = rep
		}
		for _, m := range []string{"msgs_per_op", "wire_kb_per_op", "hops_per_op", "vlat_p50_ms", "vlat_p95_ms"} {
			a, b := reps[0].Metrics[m].Value, reps[1].Metrics[m].Value
			if a != b || a == 0 || math.IsNaN(a) {
				t.Errorf("%s: %s read %v then %v; counts must repeat exactly and not be 0", name, m, a, b)
			}
		}
		if len(reps[0].Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics printed, want %d", name, len(reps[0].Metrics), len(endToEndMetrics))
		}
	}
}

func TestCorruptedOracleEntryFailsTheRun(t *testing.T) {
	w := tiny("cold_similar")
	dir := t.TempDir()
	var out bytes.Buffer
	if _, err := runWorkload(w, options{seed: 1, seconds: 10, updateGolden: true, dir: dir}, &out); err != nil {
		t.Fatal(err)
	}
	n := w.scheduleLen(10)
	fps, err := loadGolden(dir, w.name, 1, n)
	if err != nil || fps == nil {
		t.Fatalf("golden not recorded: %v", err)
	}
	fps[3] ^= 1
	if err := writeGolden(dir, w.name, 1, fps); err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(w, options{seed: 1, seconds: 10, dir: dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("a corrupted golden fingerprint went unnoticed: %+v", rep)
	}

	// The brute-force oracle: flip one expected answer.
	sched := w.schedule(w, w.data(), 1, n)
	chk := newChecker(len(sched), expectedAnswers(w.data(), sched))
	if len(chk.want) == 0 {
		t.Fatal("no read was sampled for the brute-force oracle")
	}
	su, err := w.setUp(sched, false)
	if err != nil {
		t.Fatal(err)
	}
	defer su.eng.Close()
	h := &harness{w: w, eng: su.eng}
	chk.check(sched, h.runRound(sched))
	if chk.failed != 0 {
		t.Fatalf("clean round failed %d ops: %s", chk.failed, chk.firstErr)
	}
	for pos := range chk.want {
		chk.want[pos] ^= 1
		break
	}
	chk.check(sched, h.runRound(sched))
	if chk.failed != 1 {
		t.Errorf("a corrupted oracle answer failed %d ops, want 1", chk.failed)
	}
}

func TestRunExitsNonZeroWithoutAWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

func TestReportIsTheContractsJSON(t *testing.T) {
	raw, err := json.Marshal(report{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"setup_s": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}`
	if string(raw) != want {
		t.Errorf("report = %s, want %s", raw, want)
	}
}
