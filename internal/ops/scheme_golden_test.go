package ops

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/triples"
)

// TestQGramEntryStreamChecksumGolden pins the exact byte stream the q-gram
// extraction produces — every key and every encoded posting, in planner
// order — to a checksum captured before the KeyScheme refactor. Moving the
// logic behind the interface must keep stores byte-identical, and this test
// notices a single flipped bit anywhere in the stream.
func TestQGramEntryStreamChecksumGolden(t *testing.T) {
	corpus := dataset.BibleWords(400, 11)
	data := dataset.StringTuples("word", "w", corpus)
	for _, workers := range []int{1, 4} {
		p, err := PlanLoadStream(data, StoreConfig{}, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf []byte
		for _, e := range p.entries {
			buf = buf[:0]
			buf = append(buf, e.Key.Bytes()...)
			buf = append(buf, byte(e.Key.Len()>>8), byte(e.Key.Len()))
			buf = triples.AppendPosting(buf, e.Posting)
			h.Write(buf)
		}
		got := fmt.Sprintf("n=%d sum=%016x", len(p.entries), h.Sum64())
		if got != qgramStreamGolden {
			t.Errorf("workers=%d: entry stream diverged from pre-refactor golden:\ngot:  %s\nwant: %s",
				workers, got, qgramStreamGolden)
		}
	}
}

// qgramStreamGolden was captured from the pre-refactor extraction path
// (PR 6 tree) over BibleWords(400, 11) with the default StoreConfig.
const qgramStreamGolden = `n=7353 sum=d84b27e9d75d02e9`
