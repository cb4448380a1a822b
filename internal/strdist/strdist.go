// Package strdist implements the approximate string matching toolkit the
// paper's similarity operators are built on: Levenshtein (edit) distance,
// positional q-grams, q-samples, and the candidate filters of Gravano et al.
// ("Approximate string joins in a database (almost) for free", VLDB 2001 —
// reference [7] of the paper).
//
// Distances operate on bytes; the evaluation corpora (English words and
// painting titles) are ASCII, matching the paper's setting.
package strdist

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-character insertions, deletions and substitutions transforming a
// into b. This is the dist() function VQL exposes for strings (Section 3:
// "in our implementation the edit distance for strings").
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Two-row dynamic program.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitution / match
			if del := prev[j] + 1; del < m {
				m = del
			}
			if ins := cur[j-1] + 1; ins < m {
				m = ins
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// LevenshteinBounded returns the edit distance between a and b if it is at
// most d, reporting ok=false (and an unspecified distance) otherwise. It runs
// the dynamic program inside a band of width 2d+1, so verification of
// similarity candidates costs O(d·min(|a|,|b|)) instead of O(|a|·|b|).
func LevenshteinBounded(a, b string, d int) (dist int, ok bool) {
	if d < 0 {
		return 0, false
	}
	la, lb := len(a), len(b)
	if la-lb > d || lb-la > d {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	const inf = 1 << 30
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		if j <= d {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		lo := i - d
		if lo < 1 {
			lo = 1
		}
		hi := i + d
		if hi > lb {
			hi = lb
		}
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = i
		}
		rowMin := inf
		if lo == 1 && cur[0] < rowMin {
			rowMin = cur[0]
		}
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if j-1 >= lo-1 {
				if del := prev[j] + 1; j <= i+d-1 && del < m {
					m = del
				}
				if ins := cur[j-1] + 1; ins < m {
					m = ins
				}
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if hi < lb {
			cur[hi+1] = inf
		}
		if rowMin > d {
			return 0, false
		}
		prev, cur = cur, prev
	}
	if prev[lb] > d {
		return 0, false
	}
	return prev[lb], true
}

// WithinDistance reports whether edit(a, b) <= d.
func WithinDistance(a, b string, d int) bool {
	_, ok := LevenshteinBounded(a, b, d)
	return ok
}

// Gram is a positional q-gram: a fixed-length substring together with its
// starting position in the (padded) source string. Algorithm 2 of the paper
// uses the position for the position filter and the originating string's
// length for the length filter.
type Gram struct {
	Text string
	Pos  int
}

// Padding characters used to extend strings before gram extraction, after
// Gravano et al.: padding guarantees that every string — even shorter than q —
// produces at least q grams, and strengthens the filters near string ends.
// The characters are outside the printable ASCII range of the corpora.
const (
	PadStart = '\x01'
	PadEnd   = '\x02'
)

// pad extends s with q-1 PadStart bytes on the left and q-1 PadEnd bytes on
// the right.
func pad(s string, q int) string {
	b := make([]byte, 0, len(s)+2*(q-1))
	for i := 0; i < q-1; i++ {
		b = append(b, PadStart)
	}
	b = append(b, s...)
	for i := 0; i < q-1; i++ {
		b = append(b, PadEnd)
	}
	return string(b)
}

// PaddedGrams returns all overlapping positional q-grams of the padded
// string. Every string, including the empty one, yields at least q-1 grams.
// These are the grams the storage layer indexes and the q-gram query variant
// probes.
func PaddedGrams(s string, q int) []Gram {
	return AppendPaddedGrams(nil, s, q)
}

// AppendPaddedGrams appends the padded positional q-grams of s to dst and
// returns the extended slice. Bulk-load workers and the insert hot path pass
// a reused buffer so gram expansion — the dominant CPU cost of indexing a
// string triple — allocates only the padded backing string per call instead
// of a fresh gram slice too.
func AppendPaddedGrams(dst []Gram, s string, q int) []Gram {
	if q <= 0 {
		panic("strdist: q must be positive")
	}
	p := s
	if q > 1 {
		p = pad(s, q)
	}
	if len(p) < q {
		return dst
	}
	if need := len(dst) + len(p) - q + 1; cap(dst) < need {
		grown := make([]Gram, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i+q <= len(p); i++ {
		dst = append(dst, Gram{Text: p[i : i+q], Pos: i})
	}
	return dst
}

// Samples returns the q-sample of s for maximum edit distance d: d+1
// non-overlapping q-grams of the padded string taken left to right at stride
// q ("starting from each qth position"), per Section 4 of the paper. If the
// padded string is too short to supply d+1 non-overlapping grams, Samples
// falls back to all padded grams so that the completeness guarantee ("queries
// are guaranteed to find matching data") is preserved for short strings.
func Samples(s string, q, d int) []Gram {
	if d < 0 {
		panic("strdist: negative distance")
	}
	all := PaddedGrams(s, q)
	if len(all) == 0 {
		return all
	}
	need := d + 1
	// Non-overlapping grams at positions 0, q, 2q, ...
	var out []Gram
	for pos := 0; pos < len(all); pos += q {
		out = append(out, all[pos])
		if len(out) == need {
			return out
		}
	}
	if len(out) < need {
		// Not enough non-overlapping grams: fall back to every gram.
		return all
	}
	return out
}

// PositionFilter reports whether two positional grams could originate from
// strings within edit distance d: their positions may differ by at most d
// (Algorithm 2, line 8: |p(q')-p(q)| <= d).
func PositionFilter(a, b Gram, d int) bool {
	diff := a.Pos - b.Pos
	if diff < 0 {
		diff = -diff
	}
	return diff <= d
}

// LengthFilter reports whether two strings of the given lengths could be
// within edit distance d (Algorithm 2, line 8: |l(q')-l(q)| <= d).
func LengthFilter(la, lb, d int) bool {
	diff := la - lb
	if diff < 0 {
		diff = -diff
	}
	return diff <= d
}

// CountBound returns the paper's q-gram count lower bound: two strings within
// edit distance d share at least max(|s1|,|s2|) - 1 - (d-1)·q padded q-grams
// (Section 4, citing Gravano et al.; equivalently max + q - 1 - d·q, since a
// padded string of length l has l+q-1 grams and each edit destroys at most q
// of them). A non-positive bound means the filter is vacuous for these
// lengths.
func CountBound(l1, l2, q, d int) int {
	m := l1
	if l2 > m {
		m = l2
	}
	return m - 1 - (d-1)*q
}

// GuaranteeThreshold returns the smallest string length L such that whenever
// max(|s|,|s'|) >= L and edit(s,s') <= d, the two strings are guaranteed to
// share at least one padded q-gram (CountBound > 0), and s is guaranteed to
// supply d+1 non-overlapping padded samples. Below this threshold a pure
// gram/sample lookup can miss matches — a gap in the paper's completeness
// claim that internal/ops closes with a short-string side index.
func GuaranteeThreshold(q, d int) int {
	return d*q - q + 2
}

// SharedGramCount returns the size of the multiset intersection of the
// padded q-grams of a and b (positions ignored), the quantity bounded by
// CountBound.
func SharedGramCount(a, b string, q int) int {
	ga, gb := PaddedGrams(a, q), PaddedGrams(b, q)
	counts := make(map[string]int, len(ga))
	for _, g := range ga {
		counts[g.Text]++
	}
	shared := 0
	for _, g := range gb {
		if counts[g.Text] > 0 {
			counts[g.Text]--
			shared++
		}
	}
	return shared
}
