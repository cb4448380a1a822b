// Command vqlsh is an interactive VQL shell over a simulated P-Grid
// deployment. It loads a demo dataset (the paper's car/dealer scenario by
// default), then reads one query per line.
//
// Shell commands:
//
//	\explain <query>   show the physical plan without executing
//	\analyze <query>   execute and show per-step rows and overlay cost
//	\cost              toggle per-query message/byte reporting
//	\method <m>        switch similarity method: qgrams, qsamples, strings
//	\stats             overlay and storage statistics
//	\attrs             list attribute names (the data is self-describing)
//	\help              this help
//	\quit              exit
//
// Example session:
//
//	vql> SELECT ?n,?p WHERE { (?o,name,?n) (?o,price,?p)
//	     FILTER (dist(?n,'BMW Sedann') < 3) } ORDER BY ?p ASC LIMIT 5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/triples"
	"repro/internal/vql"
)

// shell is the REPL state: the engine plus mutable session options.
type shell struct {
	eng      *core.Engine
	opts     plan.Options
	showCost bool
}

func main() {
	var (
		peers  = flag.Int("peers", 64, "number of simulated peers")
		data   = flag.String("data", "cars", "demo dataset: cars, words or titles")
		n      = flag.Int("n", 500, "dataset size")
		seed   = flag.Int64("seed", 1, "random seed")
		method = flag.String("method", "qgrams", "similarity method: qgrams, qsamples or strings")
	)
	flag.Parse()

	tuples, err := loadData(*data, *n, *seed)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{Peers: *peers}
	m, err := parseMethod(*method)
	if err != nil {
		fatal(err)
	}
	cfg.Plan.Similar.Method = m
	eng, err := core.Open(tuples, cfg)
	if err != nil {
		fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("vqlsh: %d tuples as %d triples (%d postings) on %d peers / %d partitions\n",
		len(tuples), st.Storage.Triples, st.Storage.Postings, st.Grid.Peers, st.Grid.Leaves)
	fmt.Println(`type a VQL query, or \help`)

	repl(&shell{eng: eng, opts: cfg.Plan})
}

func repl(sh *shell) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("vql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" && pending.Len() == 0:
			prompt()
			continue
		case strings.HasPrefix(line, "\\"):
			if quit := sh.command(line); quit {
				return
			}
			prompt()
			continue
		}
		// Queries may span lines; a line ending in ';' or an empty line
		// terminates the statement. Single-line complete queries run
		// immediately when they balance braces.
		pending.WriteString(line)
		pending.WriteString(" ")
		text := strings.TrimSpace(pending.String())
		if strings.HasSuffix(line, ";") || line == "" || balanced(text) {
			pending.Reset()
			sh.runQuery(strings.TrimSuffix(text, ";"))
		}
		prompt()
	}
}

// balanced reports whether the query text looks complete: it has a WHERE
// block with matching braces.
func balanced(q string) bool {
	open := strings.Count(q, "{")
	return open > 0 && open == strings.Count(q, "}")
}

func (sh *shell) runQuery(q string) {
	if q == "" {
		return
	}
	var tally metrics.Tally
	res, err := plan.Run(sh.eng.Store(), sh.eng.Grid().RandomPeer(), &tally, q, sh.opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(res.Format())
	if sh.showCost {
		fmt.Printf("cost: %s\n", tally)
	}
}

// analyze executes a query and prints the per-step profile.
func (sh *shell) analyze(text string) {
	q, err := vql.Parse(strings.TrimSuffix(text, ";"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	p, err := plan.Build(q, sh.opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var tally metrics.Tally
	ctx := plan.NewContext(sh.eng.Store(), sh.eng.Grid().RandomPeer(), &tally)
	res, profile, err := p.ExecuteProfiled(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, sp := range profile {
		fmt.Printf("%2d. %-60s rows=%-6d %s\n", i+1, sp.Step, sp.Rows, sp.Cost)
	}
	fmt.Print(res.Format())
	fmt.Printf("total cost: %s\n", tally)
}

func (sh *shell) command(line string) (quit bool) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q", "\\exit":
		return true
	case "\\help", "\\h":
		fmt.Println(`commands:
  \explain <query>   show the physical plan
  \analyze <query>   execute and show per-step rows and overlay cost
  \cost              toggle per-query cost reporting
  \method <m>        switch similarity method: qgrams, qsamples, strings
  \stats             overlay and storage statistics
  \attrs             list attribute names
  \quit              exit`)
	case "\\cost":
		sh.showCost = !sh.showCost
		fmt.Printf("cost reporting %v\n", sh.showCost)
	case "\\explain":
		q := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		ex, err := sh.eng.Explain(q)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(ex)
	case "\\analyze":
		text := strings.TrimSpace(strings.TrimPrefix(line, "\\analyze"))
		sh.analyze(text)
	case "\\method":
		if len(fields) < 2 {
			fmt.Println("usage: \\method qgrams|qsamples|strings")
			return false
		}
		m, err := parseMethod(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		sh.opts.Similar.Method = m
		fmt.Printf("similarity method: %s\n", m)
	case "\\stats":
		st := sh.eng.Stats()
		fmt.Printf("peers=%d partitions=%d depth=[%d..%d] avg=%.1f refs/peer=%.1f\n",
			st.Grid.Peers, st.Grid.Leaves, st.Grid.MinDepth, st.Grid.MaxDepth,
			st.Grid.AvgDepth, st.Grid.AvgRefs)
		fmt.Printf("triples=%d postings=%d\n", st.Storage.Triples, st.Storage.Postings)
		for kind, n := range st.Storage.ByIndex {
			fmt.Printf("  %-12s %d\n", kind, n)
		}
		fmt.Printf("network since start: %s\n", st.Network)
	case "\\attrs":
		attrs, err := sh.eng.Store().Attributes(nil, sh.eng.Grid().RandomPeer())
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Println(strings.Join(attrs, ", "))
	default:
		fmt.Printf("unknown command %s (try \\help)\n", fields[0])
	}
	return false
}

func loadData(kind string, n int, seed int64) ([]triples.Tuple, error) {
	switch kind {
	case "cars":
		dealers := dataset.Dealers(maxInt(n/10, 4), 0.2, seed)
		cars := dataset.Cars(n, len(dealers), seed+1)
		return append(cars, dealers...), nil
	case "words":
		return dataset.StringTuples("word", "b", dataset.BibleWords(n, seed)), nil
	case "titles":
		return dataset.StringTuples("title", "p", dataset.PaintingTitles(n, seed)), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want cars, words or titles)", kind)
	}
}

func parseMethod(s string) (ops.Method, error) {
	switch strings.ToLower(s) {
	case "qgrams", "qgram":
		return ops.MethodQGrams, nil
	case "qsamples", "qsample":
		return ops.MethodQSamples, nil
	case "strings", "naive", "string":
		return ops.MethodNaive, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vqlsh:", err)
	os.Exit(1)
}
