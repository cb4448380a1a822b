package strdist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"bmw", "bwm", 2},
		{"dlrid", "dealerid", 3},
		{"a", "d", 1},
		{"a", "abc", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// The paper's motivating inequality for why lexicographic order fails for
// similarity: 'a' < 'abc' < 'd' but dist('a','d') < dist('a','abc').
func TestPaperOrderingExample(t *testing.T) {
	if !(Levenshtein("a", "d") < Levenshtein("a", "abc")) {
		t.Error("dist('a','d') should be < dist('a','abc')")
	}
}

func randWord(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(6)) // small alphabet to force collisions
	}
	return string(b)
}

// applyEdits performs exactly k random single-character edits on s and
// returns the result (the true distance may be less than k).
func applyEdits(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0: // delete
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case op == 1: // insert
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{byte('a' + rng.Intn(6))}, b[p:]...)...)
		case len(b) > 0: // substitute
			p := rng.Intn(len(b))
			b[p] = byte('a' + rng.Intn(6))
		}
	}
	return string(b)
}

func TestLevenshteinProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		a, b := randWord(rng, 12), randWord(rng, 12)
		d := Levenshtein(a, b)
		if got := Levenshtein(b, a); got != d {
			t.Fatalf("symmetry: %q %q: %d vs %d", a, b, d, got)
		}
		if a == b && d != 0 {
			t.Fatalf("identity: %q: %d", a, d)
		}
		if a != b && d == 0 {
			t.Fatalf("distinct strings at distance 0: %q %q", a, b)
		}
		lenDiff := len(a) - len(b)
		if lenDiff < 0 {
			lenDiff = -lenDiff
		}
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		if d < lenDiff || d > maxLen {
			t.Fatalf("bounds: dist(%q,%q)=%d outside [%d,%d]", a, b, d, lenDiff, maxLen)
		}
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a, b, c := randWord(rng, 10), randWord(rng, 10), randWord(rng, 10)
		if Levenshtein(a, c) > Levenshtein(a, b)+Levenshtein(b, c) {
			t.Fatalf("triangle inequality violated: %q %q %q", a, b, c)
		}
	}
}

func TestLevenshteinEditsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		s := randWord(rng, 15)
		k := rng.Intn(5)
		s2 := applyEdits(rng, s, k)
		if d := Levenshtein(s, s2); d > k {
			t.Fatalf("%d edits produced distance %d: %q -> %q", k, d, s, s2)
		}
	}
}

func TestLevenshteinBoundedAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		a, b := randWord(rng, 14), randWord(rng, 14)
		d := Levenshtein(a, b)
		for bound := 0; bound <= 6; bound++ {
			got, ok := LevenshteinBounded(a, b, bound)
			if d <= bound {
				if !ok || got != d {
					t.Fatalf("LevenshteinBounded(%q,%q,%d) = (%d,%v), want (%d,true)",
						a, b, bound, got, ok, d)
				}
			} else if ok {
				t.Fatalf("LevenshteinBounded(%q,%q,%d) ok for distance %d", a, b, bound, d)
			}
		}
	}
}

func TestLevenshteinBoundedNegative(t *testing.T) {
	if _, ok := LevenshteinBounded("a", "a", -1); ok {
		t.Error("negative bound accepted")
	}
}

func TestWithinDistance(t *testing.T) {
	if !WithinDistance("kitten", "sitting", 3) {
		t.Error("kitten/sitting within 3 = false")
	}
	if WithinDistance("kitten", "sitting", 2) {
		t.Error("kitten/sitting within 2 = true")
	}
}

func TestGramsPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PaddedGrams(q=0) did not panic")
		}
	}()
	PaddedGrams("abc", 0)
}

func TestPaddedGrams(t *testing.T) {
	gs := PaddedGrams("ab", 3)
	// padded: \x01\x01 a b \x02\x02 -> 4 grams
	if len(gs) != 4 {
		t.Fatalf("PaddedGrams(ab,3) len = %d, want 4", len(gs))
	}
	if gs[0].Text != "\x01\x01a" || gs[0].Pos != 0 {
		t.Errorf("first padded gram = %+v", gs[0])
	}
	if gs[3].Text != "b\x02\x02" || gs[3].Pos != 3 {
		t.Errorf("last padded gram = %+v", gs[3])
	}
}

func TestPaddedGramsShortStrings(t *testing.T) {
	// Even a 1-character or empty string yields grams, so short titles in
	// the paintings corpus remain findable.
	if got := PaddedGrams("x", 3); len(got) == 0 {
		t.Error("PaddedGrams on 1-char string is empty")
	}
	if got := PaddedGrams("", 3); len(got) == 0 {
		t.Error("PaddedGrams on empty string is empty")
	}
}

func TestPaddedGramsQ1(t *testing.T) {
	gs := PaddedGrams("abc", 1)
	if len(gs) != 3 {
		t.Fatalf("PaddedGrams(q=1) = %v", gs)
	}
}

func TestSamplesCountAndStride(t *testing.T) {
	s := strings.Repeat("abcd", 10) // long string
	q, d := 3, 2
	samples := Samples(s, q, d)
	if len(samples) != d+1 {
		t.Fatalf("Samples len = %d, want %d", len(samples), d+1)
	}
	for i, g := range samples {
		if g.Pos != i*q {
			t.Errorf("sample %d at pos %d, want %d", i, g.Pos, i*q)
		}
	}
}

func TestSamplesFallbackForShortStrings(t *testing.T) {
	// A short string cannot supply d+1 non-overlapping grams; Samples must
	// fall back to all padded grams to keep the completeness guarantee.
	s := "ab"
	samples := Samples(s, 3, 5)
	all := PaddedGrams(s, 3)
	if len(samples) != len(all) {
		t.Errorf("fallback samples = %d grams, want all %d", len(samples), len(all))
	}
}

func TestSamplesNeverEmpty(t *testing.T) {
	for _, s := range []string{"", "a", "ab", "abc", "abcdefghij"} {
		for d := 0; d <= 5; d++ {
			if len(Samples(s, 3, d)) == 0 {
				t.Errorf("Samples(%q, 3, %d) empty", s, d)
			}
		}
	}
}

func TestPositionAndLengthFilters(t *testing.T) {
	a := Gram{Text: "abc", Pos: 4}
	b := Gram{Text: "abc", Pos: 6}
	if !PositionFilter(a, b, 2) {
		t.Error("position filter rejected shift 2 at d=2")
	}
	if PositionFilter(a, b, 1) {
		t.Error("position filter accepted shift 2 at d=1")
	}
	if !LengthFilter(10, 12, 2) || LengthFilter(10, 13, 2) {
		t.Error("length filter wrong")
	}
}

// The paper's count lemma (Section 4): strings within edit distance d share
// at least max(|s1|,|s2|) - 1 - (d-1)*q q-grams.
func TestCountBoundLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := 3
	for i := 0; i < 5000; i++ {
		s := randWord(rng, 20)
		k := 1 + rng.Intn(3)
		s2 := applyEdits(rng, s, k)
		d := Levenshtein(s, s2)
		if d == 0 {
			continue
		}
		bound := CountBound(len(s), len(s2), q, d)
		if bound <= 0 {
			continue // vacuous
		}
		if shared := SharedGramCount(s, s2, q); shared < bound {
			t.Fatalf("count lemma violated: %q vs %q (d=%d): shared %d < bound %d",
				s, s2, d, shared, bound)
		}
	}
}

// guaranteed reports whether the conditional completeness guarantee applies:
// at least one of the two strings reaches GuaranteeThreshold.
func guaranteed(s, s2 string, q, d int) bool {
	m := len(s)
	if len(s2) > m {
		m = len(s2)
	}
	return m >= GuaranteeThreshold(q, d)
}

// Completeness guarantee of the q-gram pipeline: if edit(s, s') <= d and at
// least one of the strings reaches the guarantee threshold, then some padded
// gram of the query s matches a padded gram of the stored string s' passing
// the position filter. This is the precise form of the paper's claim "queries
// are guaranteed to find matching data" for the q-gram variant (the paper
// omits the threshold condition; see GuaranteeThreshold).
func TestGramCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := 3
	for i := 0; i < 4000; i++ {
		s := randWord(rng, 16)
		k := rng.Intn(4)
		s2 := applyEdits(rng, s, k)
		d := Levenshtein(s, s2)
		if !guaranteed(s, s2, q, d) {
			continue
		}
		if !hasFilteredMatch(PaddedGrams(s, q), s2, q, d) {
			t.Fatalf("gram completeness violated: %q vs %q (d=%d)", s, s2, d)
		}
	}
}

// Same guarantee for the q-sample variant: the d+1 non-overlapping samples
// must still hit at least one stored gram.
func TestSampleCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := 3
	for i := 0; i < 4000; i++ {
		s := randWord(rng, 16)
		k := rng.Intn(4)
		s2 := applyEdits(rng, s, k)
		d := Levenshtein(s, s2)
		if !guaranteed(s, s2, q, d) {
			continue
		}
		if !hasFilteredMatch(Samples(s, q, d), s2, q, d) {
			t.Fatalf("sample completeness violated: %q vs %q (d=%d)", s, s2, d)
		}
	}
}

// Document the gap the threshold exists for: below it, two strings within
// distance d can share zero grams, so pure gram lookup would miss the match.
// internal/ops closes this with its short-string index.
func TestGramGapBelowThreshold(t *testing.T) {
	q, d := 3, 1
	s, s2 := "e", "f" // edit distance 1, no shared padded 3-gram
	if Levenshtein(s, s2) != 1 {
		t.Fatal("setup broken")
	}
	if len(s) >= GuaranteeThreshold(q, d) || len(s2) >= GuaranteeThreshold(q, d) {
		t.Fatal("example unexpectedly above threshold")
	}
	if hasFilteredMatch(PaddedGrams(s, q), s2, q, d) {
		t.Skip("grams unexpectedly shared; gap example no longer demonstrates the issue")
	}
}

func TestGuaranteeThreshold(t *testing.T) {
	// Threshold grows linearly in d; spot-check the q=3 values the
	// experiments rely on.
	want := map[int]int{0: -1, 1: 2, 2: 5, 3: 8, 4: 11, 5: 14}
	for d, w := range want {
		if got := GuaranteeThreshold(3, d); got != w {
			t.Errorf("GuaranteeThreshold(3,%d) = %d, want %d", d, got, w)
		}
	}
}

func hasFilteredMatch(queryGrams []Gram, stored string, q, d int) bool {
	storedGrams := PaddedGrams(stored, q)
	for _, qg := range queryGrams {
		for _, sg := range storedGrams {
			if qg.Text == sg.Text && PositionFilter(qg, sg, d) {
				return true
			}
		}
	}
	return false
}

func TestSampleCompletenessQuick(t *testing.T) {
	// testing/quick variant over arbitrary byte strings (not just the small
	// alphabet), exercising padding with arbitrary content.
	f := func(s []byte, edits uint8) bool {
		rng := rand.New(rand.NewSource(int64(len(s))*31 + int64(edits)))
		str := string(s)
		if len(str) > 40 {
			str = str[:40]
		}
		s2 := applyEdits(rng, str, int(edits%4))
		d := Levenshtein(str, s2)
		if !guaranteed(str, s2, 3, d) {
			return true
		}
		return hasFilteredMatch(Samples(str, 3, d), s2, 3, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLevenshteinWords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein("similarity", "similarly")
	}
}

func BenchmarkLevenshteinBoundedWords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		LevenshteinBounded("similarity", "similarly", 2)
	}
}

func BenchmarkPaddedGramsTitle(b *testing.B) {
	title := "the persistence of memory in the garden of earthly delights"
	for i := 0; i < b.N; i++ {
		PaddedGrams(title, 3)
	}
}

func TestAppendPaddedGramsReusesBuffer(t *testing.T) {
	for _, s := range []string{"", "a", "word", "similarity"} {
		for _, q := range []int{1, 2, 3, 4} {
			want := PaddedGrams(s, q)
			buf := make([]Gram, 0, 64)
			got := AppendPaddedGrams(buf, s, q)
			if len(got) != len(want) {
				t.Fatalf("AppendPaddedGrams(%q, %d): %d grams, want %d", s, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("AppendPaddedGrams(%q, %d)[%d] = %v, want %v", s, q, i, got[i], want[i])
				}
			}
			if len(got) > 0 && cap(buf) >= len(got) && &got[0] != &buf[:1][0] {
				t.Fatalf("AppendPaddedGrams(%q, %d) reallocated despite capacity", s, q)
			}
		}
	}
	// Appending after existing content keeps it.
	pre := AppendPaddedGrams(nil, "ab", 2)
	n := len(pre)
	both := AppendPaddedGrams(pre, "cd", 2)
	if len(both) <= n || both[0] != pre[0] {
		t.Fatal("AppendPaddedGrams dropped existing content")
	}
}
