package repro

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// renderMatches prints short result lists verbatim and long ones as a
// checksum, keeping the golden readable while still pinning every element.
func renderMatches(ms []ops.Match) string {
	var b strings.Builder
	b.WriteString("[")
	for i, m := range ms {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%s:%d", m.OID, m.Matched, m.Distance)
	}
	b.WriteString("]")
	if len(ms) <= 8 {
		return b.String()
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("sum=%016x", h.Sum64())
}

// schemeOracleFingerprint runs a fixed query schedule against one engine and
// renders every observable the key-scheme refactor must preserve: result
// sets, per-query message/hop/byte counts, and the per-family posting counts
// of the loaded store. Latency is excluded — it differs by executor by
// design.
func schemeOracleFingerprint(t *testing.T, eng *core.Engine, corpus []string) string {
	t.Helper()
	var b strings.Builder

	st := eng.Stats().Storage
	fmt.Fprintf(&b, "triples=%d postings=%d\n", st.Triples, st.Postings)
	for kind := triples.IndexOID; kind <= triples.IndexCatalog; kind++ {
		fmt.Fprintf(&b, "  %s=%d\n", kind, st.ByIndex[kind])
	}

	type q struct {
		needle string
		attr   string
		d      int
	}
	queries := []q{
		{corpus[3], "word", 1},
		{corpus[17], "word", 2},
		{corpus[42], "word", 3},
		{"zz", "word", 1}, // below the guarantee threshold: short fallback
		{"word", "", 2},   // schema level
		{corpus[9], "word", 0},
	}
	for _, mth := range []ops.Method{ops.MethodQGrams, ops.MethodQSamples} {
		for _, qu := range queries {
			var tally metrics.Tally
			ms, err := eng.Store().Similar(&tally, simnet.NodeID(5), qu.needle, qu.attr, qu.d,
				ops.SimilarOptions{Method: mth})
			if err != nil {
				t.Fatalf("Similar(%q,%q,%d): %v", qu.needle, qu.attr, qu.d, err)
			}
			fmt.Fprintf(&b, "similar %s %q/%q d=%d: n=%d msgs=%d hops=%d bytes=%d %s\n",
				mth, qu.needle, qu.attr, qu.d, len(ms), tally.Messages, tally.Hops, tally.Bytes,
				renderMatches(ms))
		}
	}

	var tt metrics.Tally
	top, err := eng.Store().TopNString(&tt, simnet.NodeID(11), "word", corpus[23], 5, 3, ops.TopNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "topn %q: n=%d msgs=%d hops=%d bytes=%d\n", corpus[23], len(top), tt.Messages, tt.Hops, tt.Bytes)

	var jt metrics.Tally
	pairs, err := eng.Store().SimJoin(&jt, simnet.NodeID(7), "word", "word", 1, ops.JoinOptions{LeftLimit: 6})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "join d=1: pairs=%d msgs=%d hops=%d bytes=%d\n", len(pairs), jt.Messages, jt.Hops, jt.Bytes)
	return b.String()
}

// TestQGramSchemeOracleGoldens pins the q-gram scheme's observable behavior
// to goldens captured before the KeyScheme refactor: identical results,
// message counts, hop counts, byte counts and per-family posting counts on
// both executors. Any divergence means a refactor of the scheme changed its
// behavior rather than merely moving code.
func TestQGramSchemeOracleGoldens(t *testing.T) {
	corpus := dataset.BibleWords(300, 7)
	tuples := dataset.StringTuples("word", "o", corpus)
	var prints []string
	modes := []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor}
	for _, mode := range modes {
		eng, err := core.Open(tuples, core.Config{Peers: 64, Runtime: mode})
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, schemeOracleFingerprint(t, eng, corpus))
	}
	for i, p := range prints {
		if p != prints[0] {
			t.Errorf("executor %s fingerprint diverges from %s:\n%s\nvs\n%s",
				modes[i], modes[0], p, prints[0])
		}
	}
	if got := prints[0]; got != qgramGolden {
		t.Errorf("q-gram fingerprint diverged from the pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, qgramGolden)
	}
}

// qgramGolden was captured from the pre-refactor q-gram implementation
// (PR 6 tree) with the exact schedule above: BibleWords(300, 7), 64 peers,
// default grid seed. The KeyScheme refactor must reproduce it byte for byte.
const qgramGolden = `triples=300 postings=5523
  oid=300
  attrvalue=300
  value=300
  gram=2525
  schemagram=1800
  short=297
  catalog=1
similar qgrams "abone"/"word" d=1: n=1 msgs=36 hops=6 bytes=4208 [o00000003:abone:0]
similar qgrams "ddrodu"/"word" d=2: n=1 msgs=34 hops=8 bytes=2853 [o00000017:ddrodu:0]
similar qgrams "lfmaov"/"word" d=3: n=1 msgs=47 hops=7 bytes=2211 [o00000042:lfmaov:0]
similar qgrams "zz"/"word" d=1: n=0 msgs=10 hops=6 bytes=404 []
similar qgrams "word"/"" d=2: n=300 msgs=44 hops=7 bytes=58189 sum=d9c2c76624d7d28b
similar qgrams "ppini"/"word" d=0: n=1 msgs=27 hops=7 bytes=2535 [o00000009:ppini:0]
similar qsamples "abone"/"word" d=1: n=1 msgs=19 hops=6 bytes=1577 [o00000003:abone:0]
similar qsamples "ddrodu"/"word" d=2: n=1 msgs=24 hops=8 bytes=1362 [o00000017:ddrodu:0]
similar qsamples "lfmaov"/"word" d=3: n=1 msgs=47 hops=7 bytes=2211 [o00000042:lfmaov:0]
similar qsamples "zz"/"word" d=1: n=0 msgs=9 hops=6 bytes=348 []
similar qsamples "word"/"" d=2: n=300 msgs=44 hops=7 bytes=58189 sum=d9c2c76624d7d28b
similar qsamples "ppini"/"word" d=0: n=1 msgs=16 hops=7 bytes=981 [o00000009:ppini:0]
topn "nwoxe": n=4 msgs=175 hops=7 bytes=16559
join d=1: pairs=6 msgs=227 hops=7 bytes=30910
`
