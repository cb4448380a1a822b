package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/keyscheme"
	"repro/internal/ops"
	"repro/internal/simnet"
)

// matchKey identifies a similarity result for set comparison.
func matchKey(m ops.Match) string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d", m.OID, m.Attr, m.Matched, m.Distance)
}

// TestLSHSchemeCrossExecutorOracle pins the LSH scheme to the same
// cross-executor determinism contract as q-grams: identical results,
// messages and hops on the direct and actor executors.
func TestLSHSchemeCrossExecutorOracle(t *testing.T) {
	corpus := dataset.BibleWords(300, 7)
	tuples := dataset.StringTuples("word", "o", corpus)
	var prints []string
	modes := []core.RuntimeMode{core.RuntimeDirect, core.RuntimeActor}
	for _, mode := range modes {
		eng, err := core.Open(tuples, core.Config{Peers: 64, Runtime: mode, Scheme: keyscheme.KindLSH})
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
}

// TestLSHRecallVsDirectGroundTruth is the recall harness of the LSH scheme:
// it runs the same similarity queries against an LSH engine and a q-gram
// engine on the direct executor (exact at these needle lengths, so its
// results are ground truth), and requires aggregate recall >= 0.9 at the
// default bands/rows on the bible workload. It also asserts zero false
// positives — bucket collisions cost messages, never wrong results, because
// every candidate passes the final bounded edit-distance verification.
func TestLSHRecallVsDirectGroundTruth(t *testing.T) {
	corpus := dataset.BibleWords(1500, 13)
	tuples := dataset.StringTuples("word", "o", corpus)

	truthEng, err := core.Open(tuples, core.Config{Peers: 96})
	if err != nil {
		t.Fatal(err)
	}
	lshEng, err := core.Open(tuples, core.Config{Peers: 96, Scheme: keyscheme.KindLSH})
	if err != nil {
		t.Fatal(err)
	}
	if got := lshEng.Store().Scheme().Kind(); got != keyscheme.KindLSH {
		t.Fatalf("engine scheme = %v, want lsh", got)
	}

	var truthTotal, found, falsePos int
	for i := 0; i < len(corpus); i += 25 {
		needle := corpus[i]
		for d := 1; d <= 2; d++ {
			truth, err := truthEng.Store().Similar(nil, simnet.NodeID(3), needle, "word", d, ops.SimilarOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := lshEng.Store().Similar(nil, simnet.NodeID(3), needle, "word", d, ops.SimilarOptions{})
			if err != nil {
				t.Fatal(err)
			}
			truthSet := make(map[string]bool, len(truth))
			for _, m := range truth {
				truthSet[matchKey(m)] = true
			}
			truthTotal += len(truthSet)
			for _, m := range got {
				if truthSet[matchKey(m)] {
					found++
				} else {
					falsePos++
					t.Errorf("lsh false positive for %q d=%d: %s %q dist=%d", needle, d, m.OID, m.Matched, m.Distance)
				}
			}
		}
	}
	if truthTotal == 0 {
		t.Fatal("ground truth empty; workload misconfigured")
	}
	recall := float64(found) / float64(truthTotal)
	p := lshEng.Store().Scheme().Params()
	t.Logf("lsh recall=%.4f (%d/%d matches, %d false positives) at bands=%d rows=%d",
		recall, found, truthTotal, falsePos, p.Bands, p.Rows)
	if recall < 0.9 {
		t.Errorf("lsh recall %.4f < 0.9 at default bands=%d rows=%d", recall, p.Bands, p.Rows)
	}
}
