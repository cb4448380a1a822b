package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the spread calibration and
// the unit tests read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(dir string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// spreadEntry is one workload x end-to-end metric of SPREAD.json. Spread is
// the acceptance rule's number: the distance between the first and third
// quartile of the first set's values as a share of their median. Shift is how
// much worse the second set's median is than the first's, as a share of it.
type spreadEntry struct {
	Workload     string    `json:"workload"`
	Metric       string    `json:"metric"`
	Unit         string    `json:"unit"`
	Bound        float64   `json:"bound"`
	Median       float64   `json:"median"`
	Q1           float64   `json:"q1"`
	Q3           float64   `json:"q3"`
	Spread       float64   `json:"spread"`
	Range        float64   `json:"range"` // (max-min)/median
	SecondMedian float64   `json:"second_median"`
	SecondSpread float64   `json:"second_spread"`
	Shift        float64   `json:"shift"`
	SpreadGated  bool      `json:"spread_gated"` // false for setup_s alone: the acceptance rule holds it to the shift only
	Within       bool      `json:"within_bound"`
	Values       []float64 `json:"values"`
	SecondValues []float64 `json:"second_values"`
}

// spread runs two sets of o.repeat runs of every workload, each run a fresh
// process with its own seed, alternating the workload order between runs, and
// writes SPREAD.json: the evidence that the bounds in BENCHMARK.json hold on
// this box. It mirrors what the driver does before it accepts the benchmark.
func spread(o options, out io.Writer) error {
	bf, err := readBenchmarkFile(o.dir)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric]
	var values [2]map[string]map[string][]float64
	start := time.Now()
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			seed := o.seed + int64(set*o.repeat+i)
			for j := range bf.Workloads {
				if i%2 == 1 {
					j = len(bf.Workloads) - 1 - j
				}
				name := bf.Workloads[j].Name
				rep, err := runChild(exe, o, name, seed)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", name, seed, rep.Failed, rep.Attempted)
				}
				if values[set][name] == nil {
					values[set][name] = map[string][]float64{}
				}
				for m, v := range rep.Metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
				}
				fmt.Fprintf(out, "set %d run %d %s seed %d done (%.0f s elapsed)\n",
					set+1, i+1, name, seed, time.Since(start).Seconds())
			}
		}
	}
	var entries []spreadEntry
	ok := true
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			first, second := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			e := spreadEntry{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				Median: median(first), SecondMedian: median(second), Values: first, SecondValues: second}
			e.Q1, e.Q3 = quartiles(first)
			e.Spread = (e.Q3 - e.Q1) / e.Median
			q1, q3 := quartiles(second)
			e.SecondSpread = (q3 - q1) / e.SecondMedian
			e.Range = (slices.Max(first) - slices.Min(first)) / e.Median
			e.Shift = (e.SecondMedian - e.Median) / e.Median
			if m.Better == "higher" {
				e.Shift = -e.Shift
			}
			// The acceptance rule: every spread but setup_s's stays within the
			// bound, and no second median, setup_s's too, is worse than the
			// first by more than the bound.
			e.SpreadGated = m.Name != "setup_s"
			e.Within = e.Shift <= m.Bound && (!e.SpreadGated || max(e.Spread, e.SecondSpread) <= m.Bound)
			ok = ok && e.Within
			entries = append(entries, e)
			fmt.Fprintf(out, "%-16s %-16s median %12.6g  spread %6.2f%% %6.2f%%  shift %+6.2f%%  bound %5.1f%%  %s\n",
				w.Name, m.Name, e.Median, 100*e.Spread, 100*e.SecondSpread, 100*e.Shift, 100*m.Bound, verdict(e))
		}
	}
	raw, err := json.MarshalIndent(map[string]any{
		"runs_per_set": o.repeat, "first_seed": o.seed, "seconds": o.seconds, "entries": entries,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.dir, "SPREAD.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("some metric is outside its bound; see SPREAD.json")
	}
	return nil
}

func verdict(e spreadEntry) string {
	switch {
	case !e.Within:
		return "OUTSIDE"
	case !e.SpreadGated:
		return "ok (shift only)"
	}
	return "ok"
}

// runChild runs one workload in a fresh process and parses the last line of
// its standard output.
func runChild(exe string, o options, workload string, seed int64) (*report, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-dir", o.dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line of output: %w", workload, seed, err)
	}
	return &rep, nil
}
