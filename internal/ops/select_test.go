package ops

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/triples"
)

func strFixture(t testing.TB) *fixture {
	t.Helper()
	words := []string{"alpha", "beta", "bet", "betamax", "gamma", "delta", "epsilon", "zeta"}
	var tuples []triples.Tuple
	for i, w := range words {
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("s%02d", i), "word", w))
	}
	// Mixed-type attribute: numeric values must never leak into string scans.
	tuples = append(tuples, triples.MustTuple("s98", "word", 42.0))
	f := loadTuples(t, 16, tuples, StoreConfig{})
	f.words = words
	return f
}

func TestSelectStrRangeClosed(t *testing.T) {
	f := strFixture(t)
	ts, err := f.store.SelectStrRange(nil, 0, "word",
		&StrBound{Value: "bet"}, &StrBound{Value: "delta"})
	if err != nil {
		t.Fatal(err)
	}
	got := triplesValues(ts)
	want := []string{"bet", "beta", "betamax", "delta"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSelectStrRangeOpenBounds(t *testing.T) {
	f := strFixture(t)
	ts, err := f.store.SelectStrRange(nil, 0, "word",
		&StrBound{Value: "bet", Open: true}, &StrBound{Value: "delta", Open: true})
	if err != nil {
		t.Fatal(err)
	}
	got := triplesValues(ts)
	want := []string{"beta", "betamax"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSelectStrRangeUnbounded(t *testing.T) {
	f := strFixture(t)
	ts, err := f.store.SelectStrRange(nil, 0, "word", nil, &StrBound{Value: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if got := triplesValues(ts); fmt.Sprint(got) != `[alpha bet beta]` {
		t.Errorf("lo-unbounded = %v", got)
	}
	ts, err = f.store.SelectStrRange(nil, 0, "word", &StrBound{Value: "gamma"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := triplesValues(ts); fmt.Sprint(got) != `[gamma zeta]` {
		t.Errorf("hi-unbounded = %v", got)
	}
	all, err := f.store.SelectStrRange(nil, 0, "word", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 { // the numeric value must not appear
		t.Errorf("unbounded scan = %v", triplesValues(all))
	}
}

func TestSelectStrRangeInverted(t *testing.T) {
	f := strFixture(t)
	if _, err := f.store.SelectStrRange(nil, 0, "word",
		&StrBound{Value: "z"}, &StrBound{Value: "a"}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestSelectStrRangeMatchesBruteForceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var words []string
	var tuples []triples.Tuple
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(8)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		w := string(b)
		words = append(words, w)
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("r%04d", i), "word", w))
	}
	f := loadTuples(t, 32, tuples, StoreConfig{})
	for trial := 0; trial < 40; trial++ {
		lo := words[rng.Intn(len(words))]
		hi := words[rng.Intn(len(words))]
		if lo > hi {
			lo, hi = hi, lo
		}
		ts, err := f.store.SelectStrRange(nil, 0, "word",
			&StrBound{Value: lo}, &StrBound{Value: hi})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, w := range words {
			if w >= lo && w <= hi {
				want++
			}
		}
		if len(ts) != want {
			t.Fatalf("range [%q,%q]: got %d, want %d", lo, hi, len(ts), want)
		}
	}
}

func TestSelectValuePrefix(t *testing.T) {
	f := strFixture(t)
	ts, err := f.store.SelectValuePrefix(nil, 0, "word", "bet")
	if err != nil {
		t.Fatal(err)
	}
	got := triplesValues(ts)
	want := []string{"bet", "beta", "betamax"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("prefix bet = %v, want %v", got, want)
	}
	ts, err = f.store.SelectValuePrefix(nil, 0, "word", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 8 {
		t.Errorf("empty prefix = %d values", len(ts))
	}
	ts, err = f.store.SelectValuePrefix(nil, 0, "word", "nope")
	if err != nil || len(ts) != 0 {
		t.Errorf("missing prefix = %v, %v", ts, err)
	}
}

func TestSelectStrRangeCheaperThanScanOnNarrowRange(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var tuples []triples.Tuple
	for i := 0; i < 800; i++ {
		b := make([]byte, 6)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		tuples = append(tuples, triples.MustTuple(fmt.Sprintf("c%04d", i), "word", string(b)))
	}
	f := loadTuples(t, 128, tuples, StoreConfig{})
	var narrow, full metrics.Tally
	if _, err := f.store.SelectStrRange(&narrow, 0, "word",
		&StrBound{Value: "ba"}, &StrBound{Value: "bc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.ScanAttr(&full, 0, "word"); err != nil {
		t.Fatal(err)
	}
	if narrow.Messages >= full.Messages {
		t.Errorf("narrow range (%d msgs) not cheaper than full scan (%d)",
			narrow.Messages, full.Messages)
	}
}

func triplesValues(ts []triples.Triple) []string {
	out := make([]string, 0, len(ts))
	for _, tr := range ts {
		out = append(out, tr.Val.Str)
	}
	sort.Strings(out)
	return out
}
