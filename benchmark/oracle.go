package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ops"
	"repro/internal/strdist"
	"repro/internal/triples"
)

// fingerprintLines is FNV-1a over the sorted lines of an answer, so two
// answers compare equal exactly when they hold the same matches or rows.
func fingerprintLines(lines []string) uint64 {
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func matchLine(oid, attr, matched string, dist int) string {
	return oid + "\x00" + attr + "\x00" + matched + "\x00" + strconv.Itoa(dist)
}

func fingerprintMatches(ms []ops.Match) uint64 {
	lines := make([]string, len(ms))
	for i, m := range ms {
		lines[i] = matchLine(m.OID, m.Attr, m.Matched, m.Distance)
	}
	return fingerprintLines(lines)
}

func rowLine(row []triples.Value) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.Render()
	}
	return strings.Join(cells, "\x00")
}

func fingerprintRows(rows [][]triples.Value) uint64 {
	lines := make([]string, len(rows))
	for i, row := range rows {
		lines[i] = rowLine(row)
	}
	return fingerprintLines(lines)
}

// model is the harness's own copy of the live corpus: the loaded tuples plus
// whatever the schedule has inserted and not yet deleted.
type model struct {
	base  []triples.Tuple
	vals  map[string][]value // base's string values per attribute, listed once
	extra map[string]string  // oid -> value written under the workload's attribute
}

// expectedAnswers walks one pass of the schedule over the model and computes, by a
// brute-force strdist.LevenshteinBounded scan that shares no code with the
// index, the fingerprint every checked read must produce. The map is keyed
// by schedule position.
func expectedAnswers(data []triples.Tuple, sched []op) map[int]uint64 {
	m := model{base: data, vals: map[string][]value{}, extra: map[string]string{}}
	want := map[int]uint64{}
	for i, o := range sched {
		switch {
		case o.kind == opInsert:
			m.extra[o.oid] = o.text
		case o.kind == opDelete:
			delete(m.extra, o.oid)
		case o.kind == opSimilar && o.check:
			want[i] = m.similar(o.text, o.attr, o.d)
		case o.kind == opQuery && o.check:
			want[i] = m.nameQuery(o)
		}
	}
	return want
}

// similar answers Store.Similar(needle, attr, d) from the model.
func (m *model) similar(needle, attr string, d int) uint64 {
	var lines []string
	scan := func(oid, val string) {
		if dist, ok := strdist.LevenshteinBounded(needle, val, d); ok {
			lines = append(lines, matchLine(oid, attr, val, dist))
		}
	}
	if _, listed := m.vals[attr]; !listed {
		m.vals[attr] = attrValues(m.base, attr)
	}
	for _, v := range m.vals[attr] {
		scan(v.oid, v.val)
	}
	for oid, val := range m.extra {
		scan(oid, val)
	}
	return fingerprintLines(lines)
}

// nameQuery answers the two VQL templates that select on name — the exact
// match joined to price and the instance-level dist filter — from the model.
// The op carries the literal in attr and the distance in d.
func (m *model) nameQuery(o op) uint64 {
	var lines []string
	for _, tu := range m.base {
		name, ok := tu.Get("name")
		if !ok {
			continue
		}
		if _, within := strdist.LevenshteinBounded(o.attr, name.Str, o.d); !within {
			continue
		}
		row := []triples.Value{triples.String(tu.OID), name}
		if o.tmpl == tmplExact {
			price, ok := tu.Get("price")
			if !ok {
				continue
			}
			row[1] = price
		}
		lines = append(lines, rowLine(row))
	}
	return fingerprintLines(lines)
}

// golden holds the committed fingerprints of one workload's schedule at the
// default seed and run length.
type golden struct {
	Seed         int64    `json:"seed"`
	Ops          int      `json:"ops"`
	Fingerprints []string `json:"fingerprints"`
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, "golden", workload+".json")
}

// loadGolden returns the committed fingerprints for (seed, ops), or nil when
// the file was recorded for another schedule.
func loadGolden(dir, workload string, seed int64, nOps int) ([]uint64, error) {
	raw, err := os.ReadFile(goldenPath(dir, workload))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(dir, workload), err)
	}
	if g.Seed != seed || g.Ops != nOps {
		return nil, nil
	}
	fps := make([]uint64, len(g.Fingerprints))
	for i, s := range g.Fingerprints {
		if fps[i], err = strconv.ParseUint(s, 16, 64); err != nil {
			return nil, fmt.Errorf("%s: fingerprint %d: %w", goldenPath(dir, workload), i, err)
		}
	}
	return fps, nil
}

func writeGolden(dir, workload string, seed int64, fps []uint64) error {
	g := golden{Seed: seed, Ops: len(fps), Fingerprints: make([]string, len(fps))}
	for i, fp := range fps {
		g.Fingerprints[i] = strconv.FormatUint(fp, 16)
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(dir, workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, workload), append(raw, '\n'), 0o644)
}

// checker counts failed ops: an error, an answer that differs from the first
// one at the same schedule position, from the brute-force oracle, or
// from the committed golden fingerprint.
type checker struct {
	want      map[int]uint64 // brute-force answers by schedule position
	golden    []uint64       // nil unless recorded for this seed and length
	first     []uint64       // the first answer's fingerprint per schedule position
	seen      []bool         // whether first holds one yet
	attempted int
	failed    int
	firstErr  string
}

func newChecker(scheduleLen int, want map[int]uint64) *checker {
	return &checker{want: want, first: make([]uint64, scheduleLen), seen: make([]bool, scheduleLen)}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// check verifies one round of sched, which is the schedule or a prefix of it
// (the warm-up). Every pass over the schedule starts from the
// loaded state (writes come in insert/delete pairs), so an op's answer may
// not change from pass to pass on any workload: the first answer seen at a
// schedule position is what every later one is compared with, within a round
// that issues the schedule twice too.
func (c *checker) check(sched []op, rd round) {
	for i, res := range rd.results {
		pos := i % len(sched)
		c.attempted++
		switch {
		case res.err != nil:
			c.fail("op %d (%s): %v", i, sched[pos], res.err)
			continue
		case c.seen[pos] && c.first[pos] != res.fp:
			c.fail("op %d (%s): fingerprint %x, its first answer had %x", i, sched[pos], res.fp, c.first[pos])
		case c.golden != nil && c.golden[pos] != res.fp:
			c.fail("op %d (%s): fingerprint %x, golden has %x", i, sched[pos], res.fp, c.golden[pos])
		default:
			if want, ok := c.want[pos]; ok && want != res.fp {
				c.fail("op %d (%s): fingerprint %x, brute-force oracle has %x", i, sched[pos], res.fp, want)
			}
		}
		if !c.seen[pos] {
			c.seen[pos], c.first[pos] = true, res.fp
		}
	}
}
