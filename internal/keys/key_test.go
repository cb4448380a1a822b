package keys

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []string{"", "0", "1", "0101", "11111111", "000000001", "1011011101111"}
	for _, c := range cases {
		k, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if got := k.String(); got != c {
			t.Errorf("Parse(%q).String() = %q", c, got)
		}
		if k.Len() != len(c) {
			t.Errorf("Parse(%q).Len() = %d, want %d", c, k.Len(), len(c))
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, c := range []string{"2", "01x", "abc", "0 1"} {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestFromBitsPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromBits(\"01a\") did not panic")
		}
	}()
	FromBits("01a")
}

func TestBit(t *testing.T) {
	k := FromBits("10110")
	want := []int{1, 0, 1, 1, 0}
	for i, w := range want {
		if got := k.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bit(5) on 5-bit key did not panic")
		}
	}()
	FromBits("10110").Bit(5)
}

func TestPrefix(t *testing.T) {
	k := FromBits("101101")
	for l := 0; l <= k.Len(); l++ {
		p := k.Prefix(l)
		if p.String() != "101101"[:l] {
			t.Errorf("Prefix(%d) = %q, want %q", l, p.String(), "101101"[:l])
		}
		if !k.HasPrefix(p) {
			t.Errorf("k does not have its own prefix of length %d", l)
		}
	}
}

func TestPrefixClearsSlackBits(t *testing.T) {
	k := FromBits("1111")
	p := k.Prefix(2)
	// Slack bits must be zero so Equal/Compare work on packed form.
	if !p.Equal(FromBits("11")) {
		t.Errorf("Prefix(2) = %q, want 11", p)
	}
	if p.Bytes()[0] != 0xC0 {
		t.Errorf("slack bits not cleared: %x", p.Bytes())
	}
}

func TestHasPrefix(t *testing.T) {
	cases := []struct {
		k, p string
		want bool
	}{
		{"1011", "", true},
		{"1011", "1", true},
		{"1011", "10", true},
		{"1011", "1011", true},
		{"1011", "10110", false},
		{"1011", "11", false},
		{"", "", true},
		{"", "0", false},
	}
	for _, c := range cases {
		if got := FromBits(c.k).HasPrefix(FromBits(c.p)); got != c.want {
			t.Errorf("HasPrefix(%q, %q) = %v, want %v", c.k, c.p, got, c.want)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"1", "0", 0},
		{"10", "11", 1},
		{"1010", "1010", 4},
		{"101011111", "101010000", 5},
		{"11111111" + "1", "11111111" + "0", 8},
	}
	for _, c := range cases {
		if got := FromBits(c.a).CommonPrefixLen(FromBits(c.b)); got != c.want {
			t.Errorf("CommonPrefixLen(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAppendBitAndConcat(t *testing.T) {
	k := Empty
	for _, b := range []int{1, 0, 1, 1, 0, 1, 0, 0, 1} {
		k = k.AppendBit(b)
	}
	if k.String() != "101101001" {
		t.Fatalf("AppendBit chain = %q", k)
	}
	a, b := FromBits("1011"), FromBits("01001")
	if got := a.Concat(b).String(); got != "101101001" {
		t.Errorf("Concat = %q, want 101101001", got)
	}
	if got := Empty.Concat(b); !got.Equal(b) {
		t.Errorf("Empty.Concat = %q", got)
	}
	if got := a.Concat(Empty); !got.Equal(a) {
		t.Errorf("Concat(Empty) = %q", got)
	}
}

func TestConcatClearsSlack(t *testing.T) {
	// A prefix whose underlying byte still has junk bits must not leak them.
	k := FromBits("1111").Prefix(2)
	got := k.Concat(FromBits("00"))
	if got.String() != "1100" {
		t.Errorf("Concat after Prefix = %q, want 1100", got)
	}
}

func TestFlipLast(t *testing.T) {
	cases := []struct{ in, want string }{
		{"0", "1"},
		{"1", "0"},
		{"1010", "1011"},
		{"1011", "1010"},
	}
	for _, c := range cases {
		if got := FromBits(c.in).FlipLast().String(); got != c.want {
			t.Errorf("FlipLast(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFlipLastPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FlipLast on empty key did not panic")
		}
	}()
	Empty.FlipLast()
}

func TestCompare(t *testing.T) {
	ordered := []string{"", "0", "00", "01", "011", "1", "10", "101", "11"}
	for i := range ordered {
		for j := range ordered {
			got := FromBits(ordered[i]).Compare(FromBits(ordered[j]))
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%q, %q) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestStringKeyOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := StringKey(a), StringKey(b)
		return (strings.Compare(a, b) < 0) == ka.Less(kb) ||
			(strings.Compare(a, b) == 0) == ka.Equal(kb)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStringKeyOrderExact(t *testing.T) {
	// Stronger check than the quick property: trichotomy matches exactly.
	f := func(a, b string) bool {
		return sign(strings.Compare(a, b)) == StringKey(a).Compare(StringKey(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestNumberKeyOrderPreserving(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		return sign(compareFloat(x, y)) == NumberKey(x).Compare(NumberKey(y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func TestNumberKeySpecialValues(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1, 1e300, math.Inf(1)}
	for i := 0; i+1 < len(vals); i++ {
		if !NumberKey(vals[i]).Less(NumberKey(vals[i+1])) {
			t.Errorf("NumberKey(%g) !< NumberKey(%g)", vals[i], vals[i+1])
		}
	}
}

func TestNumberKeyZeroes(t *testing.T) {
	// -0 and +0 compare equal as floats but may encode differently; the
	// contract only promises x < y implies key order, so just check both
	// decode back to zero.
	for _, z := range []float64{math.Copysign(0, -1), 0} {
		got, err := DecodeNumberKey(NumberKey(z))
		if err != nil || got != 0 {
			t.Errorf("DecodeNumberKey(NumberKey(%g)) = %g, %v", z, got, err)
		}
	}
}

func TestDecodeNumberKeyRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		got, err := DecodeNumberKey(NumberKey(x))
		return err == nil && got == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeNumberKeyWrongLength(t *testing.T) {
	if _, err := DecodeNumberKey(FromBits("101")); err == nil {
		t.Error("DecodeNumberKey on 3-bit key succeeded, want error")
	}
}

func TestMinMaxInPrefix(t *testing.T) {
	p := FromBits("10")
	lo, hi := p.MinInPrefix(5), p.MaxInPrefix(5)
	if lo.String() != "10000" || hi.String() != "10111" {
		t.Errorf("Min/MaxInPrefix = %q, %q", lo, hi)
	}
	if !lo.HasPrefix(p) || !hi.HasPrefix(p) {
		t.Error("padding lost the prefix")
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Lo: StringKey("car#b"), Hi: StringKey("car#d")}
	if !iv.Contains(StringKey("car#c")) {
		t.Error("interval missed interior key")
	}
	if !iv.Contains(StringKey("car#b")) || !iv.Contains(StringKey("car#d")) {
		t.Error("interval missed boundary key")
	}
	// Extension of the Hi boundary counts as inside (prefix convention).
	if !iv.Contains(StringKey("car#dzz")) {
		t.Error("interval missed extension of Hi")
	}
	if iv.Contains(StringKey("car#a")) || iv.Contains(StringKey("car#e")) {
		t.Error("interval included outside key")
	}
}

func TestIntervalOverlapsPrefix(t *testing.T) {
	iv := Interval{Lo: FromBits("0100"), Hi: FromBits("0110")}
	cases := []struct {
		p    string
		want bool
	}{
		{"", true},      // root spans everything
		{"0", true},     // ancestor of the range
		{"01", true},    // ancestor
		{"0100", true},  // equals Lo
		{"0101", true},  // interior
		{"0110", true},  // equals Hi
		{"01101", true}, // descendant of Hi
		{"0111", false}, // above Hi
		{"00", false},   // below Lo
		{"1", false},    // below/above disjoint
	}
	for _, c := range cases {
		if got := iv.OverlapsPrefix(FromBits(c.p)); got != c.want {
			t.Errorf("OverlapsPrefix(%q) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestIntervalOverlapsPrefixAgreesWithEnumeration(t *testing.T) {
	// Exhaustive ground truth on a tiny key space: for all intervals over
	// 4-bit keys and all prefixes up to 4 bits, OverlapsPrefix must equal
	// "exists a 4-bit key with that prefix inside the interval".
	all := make([]Key, 0, 16)
	for i := 0; i < 16; i++ {
		k := Empty
		for b := 3; b >= 0; b-- {
			k = k.AppendBit((i >> uint(b)) & 1)
		}
		all = append(all, k)
	}
	var prefixes []Key
	var gen func(Key)
	gen = func(p Key) {
		prefixes = append(prefixes, p)
		if p.Len() == 4 {
			return
		}
		gen(p.AppendBit(0))
		gen(p.AppendBit(1))
	}
	gen(Empty)
	for i := 0; i < 16; i++ {
		for j := i; j < 16; j++ {
			iv := Interval{Lo: all[i], Hi: all[j]}
			for _, p := range prefixes {
				want := false
				for _, k := range all {
					if k.HasPrefix(p) && iv.Contains(k) {
						want = true
						break
					}
				}
				if got := iv.OverlapsPrefix(p); got != want {
					t.Fatalf("OverlapsPrefix([%s,%s], %s) = %v, want %v",
						all[i], all[j], p, got, want)
				}
			}
		}
	}
}

func TestIntervalValid(t *testing.T) {
	if !(Interval{Lo: FromBits("0"), Hi: FromBits("1")}).Valid() {
		t.Error("[0,1] reported invalid")
	}
	if (Interval{Lo: FromBits("1"), Hi: FromBits("0")}).Valid() {
		t.Error("[1,0] reported valid")
	}
	// Region-end convention: Lo extends Hi.
	if !(Interval{Lo: FromBits("0110"), Hi: FromBits("01")}).Valid() {
		t.Error("region-end interval reported invalid")
	}
}

func TestIntervalRegionEndContains(t *testing.T) {
	// [Lo=0110, end of region 01]: keys 0110..0111 plus extensions.
	iv := Interval{Lo: FromBits("0110"), Hi: FromBits("01")}
	for _, in := range []string{"0110", "0111", "01101", "01111"} {
		if !iv.Contains(FromBits(in)) {
			t.Errorf("region-end interval missed %s", in)
		}
	}
	for _, out := range []string{"0100", "0101", "00", "1", "10", "0011"} {
		if iv.Contains(FromBits(out)) {
			t.Errorf("region-end interval included %s", out)
		}
	}
}

func TestIntervalRegionEndOverlapsPrefixExhaustive(t *testing.T) {
	// Ground truth over all 5-bit keys: for all region-end intervals
	// (Lo in region of Hi) and all prefixes, OverlapsPrefix must equal
	// "exists a 5-bit key with that prefix inside the interval".
	all := make([]Key, 0, 32)
	for i := 0; i < 32; i++ {
		k := Empty
		for b := 4; b >= 0; b-- {
			k = k.AppendBit((i >> uint(b)) & 1)
		}
		all = append(all, k)
	}
	var prefixes []Key
	var gen func(Key)
	gen = func(p Key) {
		prefixes = append(prefixes, p)
		if p.Len() == 5 {
			return
		}
		gen(p.AppendBit(0))
		gen(p.AppendBit(1))
	}
	gen(Empty)
	for _, hi := range prefixes {
		if hi.Len() == 0 || hi.Len() >= 5 {
			continue
		}
		for _, lo := range all {
			if !lo.HasPrefix(hi) || lo.Compare(hi) <= 0 {
				continue
			}
			iv := Interval{Lo: lo, Hi: hi}
			for _, p := range prefixes {
				want := false
				for _, k := range all {
					if k.HasPrefix(p) && iv.Contains(k) {
						want = true
						break
					}
				}
				if got := iv.OverlapsPrefix(p); got != want {
					t.Fatalf("OverlapsPrefix([%s, region %s], %s) = %v, want %v",
						lo, hi, p, got, want)
				}
			}
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		b := make([]byte, rng.Intn(20))
		rng.Read(b)
		k := FromBytes(b)
		got := k.Bytes()
		if string(got) != string(b) {
			t.Fatalf("Bytes round trip failed: %x vs %x", got, b)
		}
		// Mutating the returned slice must not affect the key.
		if len(got) > 0 {
			got[0] ^= 0xFF
			if string(k.Bytes()) != string(b) {
				t.Fatal("Bytes returned aliasing slice")
			}
		}
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and consistency with HasPrefix on random keys.
	rng := rand.New(rand.NewSource(11))
	randKey := func() Key {
		k := Empty
		for n := rng.Intn(24); n > 0; n-- {
			k = k.AppendBit(rng.Intn(2))
		}
		return k
	}
	for i := 0; i < 2000; i++ {
		a, b := randKey(), randKey()
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("antisymmetry violated for %q, %q", a, b)
		}
		if a.HasPrefix(b) && b.HasPrefix(a) && !a.Equal(b) {
			t.Fatalf("mutual prefixes but unequal: %q, %q", a, b)
		}
	}
}

func TestCompareTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randKey := func() Key {
		k := Empty
		for n := rng.Intn(12); n > 0; n-- {
			k = k.AppendBit(rng.Intn(2))
		}
		return k
	}
	for i := 0; i < 1000; i++ {
		a, b, c := randKey(), randKey(), randKey()
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %q %q %q", a, b, c)
		}
	}
}

func TestFromPackedBits(t *testing.T) {
	cases := []struct {
		bits string
	}{
		{""}, {"1"}, {"0"}, {"10110"}, {"11111111"}, {"101101011"}, {"0000000000000001"},
	}
	for _, c := range cases {
		want := FromBits(c.bits)
		got := FromPackedBits(want.Bytes(), want.Len())
		if !got.Equal(want) {
			t.Errorf("FromPackedBits round-trip of %q = %q", c.bits, got)
		}
	}
	// Slack bits past n must be cleared even if set in the source buffer.
	got := FromPackedBits([]byte{0xFF}, 3)
	if want := FromBits("111"); !got.Equal(want) {
		t.Errorf("FromPackedBits([0xFF], 3) = %q, want %q", got, want)
	}
	if got.Bytes()[0] != 0xE0 {
		t.Errorf("slack bits not cleared: % x", got.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Error("FromPackedBits accepted a short buffer")
		}
	}()
	FromPackedBits([]byte{0}, 9)
}

// TestHash64 pins what callers rely on: equal keys built along different
// paths hash equal, a key and its zero-bit extension hash apart (their packed
// bytes can be identical), and hashing allocates nothing.
func TestHash64(t *testing.T) {
	a := StringKey("A#word#").Concat(StringKey("sgrid"))
	b := StringKey("A#word#sgrid")
	if !a.Equal(b) || a.Hash64() != b.Hash64() {
		t.Fatalf("equal keys hash apart: %x vs %x", a.Hash64(), b.Hash64())
	}
	short := FromBits("1010")
	if long := short.AppendBit(0); short.Hash64() == long.Hash64() {
		t.Errorf("%s and %s share the hash %x", short, long, short.Hash64())
	}
	seen := map[uint64]string{}
	for _, s := range []string{"", "O#w1\x00", "O#w2\x00", "G#word#gri\x00", "G#word#rid\x00", "N#", "W#word#"} {
		h := StringKey(s).Hash64()
		if prev, dup := seen[h]; dup {
			t.Errorf("%q and %q collide on %x", prev, s, h)
		}
		seen[h] = s
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.Hash64() }); n != 0 {
		t.Errorf("Hash64 allocates %v times per call", n)
	}
}
