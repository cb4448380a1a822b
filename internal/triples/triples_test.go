package triples

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

func TestValueConstructorsAndEqual(t *testing.T) {
	s := String("bmw")
	n := Number(42)
	if s.Kind != KindString || s.Str != "bmw" {
		t.Errorf("String() = %+v", s)
	}
	if n.Kind != KindNumber || n.Num != 42 {
		t.Errorf("Number() = %+v", n)
	}
	if !s.Equal(String("bmw")) || s.Equal(String("vw")) || s.Equal(n) {
		t.Error("Equal broken for strings")
	}
	if !n.Equal(Number(42)) || n.Equal(Number(43)) {
		t.Error("Equal broken for numbers")
	}
}

func TestValueCompare(t *testing.T) {
	if Number(1).Compare(Number(2)) != -1 || Number(2).Compare(Number(1)) != 1 ||
		Number(1).Compare(Number(1)) != 0 {
		t.Error("number compare broken")
	}
	if String("a").Compare(String("b")) != -1 || String("b").Compare(String("a")) != 1 {
		t.Error("string compare broken")
	}
	if Number(9e9).Compare(String("")) != -1 || String("").Compare(Number(9e9)) != 1 {
		t.Error("cross-kind ordering broken")
	}
}

func TestValueRender(t *testing.T) {
	if got := String("x y").Render(); got != "x y" {
		t.Errorf("Render string = %q", got)
	}
	if got := Number(50000).Render(); got != "50000" {
		t.Errorf("Render number = %q", got)
	}
	if got := Number(1.5).Render(); got != "1.5" {
		t.Errorf("Render float = %q", got)
	}
}

func TestValidateAttr(t *testing.T) {
	for _, ok := range []string{"name", "car:name", "hp", "addr_1"} {
		if err := ValidateAttr(ok); err != nil {
			t.Errorf("ValidateAttr(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "a#b", "a\x01b", "x\x00"} {
		if err := ValidateAttr(bad); err == nil {
			t.Errorf("ValidateAttr(%q) succeeded", bad)
		}
	}
}

func TestValidateOID(t *testing.T) {
	if err := ValidateOID("urn:car:1"); err != nil {
		t.Errorf("ValidateOID = %v", err)
	}
	for _, bad := range []string{"", "a#b", "x\x02"} {
		if err := ValidateOID(bad); err == nil {
			t.Errorf("ValidateOID(%q) succeeded", bad)
		}
	}
}

func TestNewTupleAndGet(t *testing.T) {
	tu, err := NewTuple("car1", "name", "BMW", "hp", 210, "price", 49999.5)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tu.Get("name"); !ok || v.Str != "BMW" {
		t.Errorf("Get(name) = %v, %v", v, ok)
	}
	if v, ok := tu.Get("hp"); !ok || v.Num != 210 {
		t.Errorf("Get(hp) = %v, %v", v, ok)
	}
	if _, ok := tu.Get("missing"); ok {
		t.Error("Get(missing) = true")
	}
}

func TestNewTupleErrors(t *testing.T) {
	if _, err := NewTuple("x", "name"); err == nil {
		t.Error("odd pair count accepted")
	}
	if _, err := NewTuple("x", 5, "v"); err == nil {
		t.Error("non-string field name accepted")
	}
	if _, err := NewTuple("x", "f", []int{1}); err == nil {
		t.Error("unsupported value type accepted")
	}
}

func TestMustTuplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTuple did not panic")
		}
	}()
	MustTuple("x", "only-name")
}

func TestDecomposeRecomposeRoundTrip(t *testing.T) {
	tu := MustTuple("car1", "name", "BMW", "hp", 210, "price", 49999.5)
	ts, err := Decompose(tu)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("Decompose produced %d triples", len(ts))
	}
	for _, tr := range ts {
		if tr.OID != "car1" {
			t.Errorf("triple oid = %q", tr.OID)
		}
	}
	back := Recompose("car1", ts)
	if len(back.Fields) != 3 {
		t.Fatalf("Recompose produced %d fields", len(back.Fields))
	}
	// Recompose sorts attributes: hp, name, price.
	if back.Fields[0].Name != "hp" || back.Fields[1].Name != "name" || back.Fields[2].Name != "price" {
		t.Errorf("Recompose order = %v", back.Fields)
	}
	if v, _ := back.Get("name"); !v.Equal(String("BMW")) {
		t.Error("value lost in round trip")
	}
}

func TestRecomposeIgnoresForeignOIDs(t *testing.T) {
	ts := []Triple{
		{OID: "a", Attr: "x", Val: Number(1)},
		{OID: "b", Attr: "y", Val: Number(2)},
	}
	tu := Recompose("a", ts)
	if len(tu.Fields) != 1 || tu.Fields[0].Name != "x" {
		t.Errorf("Recompose = %+v", tu)
	}
}

func TestDecomposeValidates(t *testing.T) {
	if _, err := Decompose(Tuple{OID: "", Fields: []Field{{Name: "a", Val: Number(1)}}}); err == nil {
		t.Error("empty oid accepted")
	}
	if _, err := Decompose(Tuple{OID: "x", Fields: []Field{{Name: "a#b", Val: Number(1)}}}); err == nil {
		t.Error("reserved char in attr accepted")
	}
}

func TestIndexKeyFamiliesDisjoint(t *testing.T) {
	// The same logical string in different families must produce keys in
	// different namespace regions.
	ks := []keys.Key{
		OIDKey("x"),
		AttrValueKey("x", String("x")),
		ValueKey(String("x")),
		GramKey("x", "x"),
		SchemaGramKey("x"),
		ShortValueKey("x", String("x")),
		CatalogKey("x"),
	}
	for i := range ks {
		for j := range ks {
			if i != j && ks[i].Equal(ks[j]) {
				t.Errorf("key families %d and %d collide: %s", i, j, ks[i])
			}
		}
	}
}

func TestAttrPrefixCoversValues(t *testing.T) {
	p := AttrPrefix("name")
	if !AttrValueKey("name", String("bmw")).HasPrefix(p) {
		t.Error("string value key not under attr prefix")
	}
	if !AttrValueKey("name", Number(5)).HasPrefix(p) {
		t.Error("number value key not under attr prefix")
	}
	if AttrValueKey("nam", String("ebmw")).HasPrefix(p) {
		t.Error("different attribute leaked into prefix")
	}
	if AttrValueKey("names", String("bmw")).HasPrefix(p) {
		t.Error("extended attribute leaked into prefix")
	}
}

func TestAttrValueKeyOrderPreserving(t *testing.T) {
	// Within one attribute, key order equals value order (strings).
	f := func(a, b string) bool {
		ka := AttrValueKey("title", String(a))
		kb := AttrValueKey("title", String(b))
		switch {
		case a < b:
			return ka.Less(kb)
		case a > b:
			return kb.Less(ka)
		}
		return ka.Equal(kb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAttrValueKeyNumberOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := AttrValueKey("price", Number(a))
		kb := AttrValueKey("price", Number(b))
		switch {
		case a < b:
			return ka.Less(kb)
		case a > b:
			return kb.Less(ka)
		}
		return ka.Equal(kb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestShortAndCatalogPrefixes(t *testing.T) {
	if !ShortValueKey("name", String("bm")).HasPrefix(ShortValuePrefix("name")) {
		t.Error("short key not under short prefix")
	}
	if !CatalogKey("dlrid").HasPrefix(CatalogPrefix()) {
		t.Error("catalog key not under catalog prefix")
	}
}

func TestValidateValue(t *testing.T) {
	if err := ValidateValue(String("ok value!")); err != nil {
		t.Errorf("ValidateValue = %v", err)
	}
	if err := ValidateValue(Number(1)); err != nil {
		t.Errorf("ValidateValue(number) = %v", err)
	}
	for _, bad := range []string{"a\x00b", "a\x01", "\x02"} {
		if err := ValidateValue(String(bad)); err == nil {
			t.Errorf("ValidateValue(%q) succeeded", bad)
		}
	}
}

// No stored key may be a proper prefix of another stored key; this is what
// makes P-Grid construction assign every key a unique responsible leaf.
func TestStoredKeysNeverPrefixEachOther(t *testing.T) {
	attrs := []string{"name", "names", "n", "hp"}
	strVals := []string{"a", "ab", "abc", "b", "the", "then"}
	var all []keys.Key
	for _, a := range attrs {
		all = append(all, CatalogKey(a))
		for _, s := range strVals {
			all = append(all, AttrValueKey(a, String(s)), ShortValueKey(a, String(s)))
			all = append(all, GramKey(a, s))
		}
		for _, n := range []float64{-1, 0, 1, 42} {
			all = append(all, AttrValueKey(a, Number(n)))
		}
	}
	for _, s := range strVals {
		all = append(all, OIDKey(s), ValueKey(String(s)), SchemaGramKey(s))
		all = append(all, ValueKey(Number(7)))
	}
	for i := range all {
		for j := range all {
			if i == j {
				continue
			}
			if !all[i].Equal(all[j]) && all[j].HasPrefix(all[i]) {
				t.Fatalf("key %s is a proper prefix of %s", all[i], all[j])
			}
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{OID: "car1", Attr: "hp", Val: Number(210)}
	if got := tr.String(); got != "(car1, hp, 210)" {
		t.Errorf("String = %q", got)
	}
}

// --- wire encoding ---

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", string(make([]byte, 300))} {
		b := AppendString(nil, s)
		got, n, err := ReadString(b)
		if err != nil || got != s || n != len(b) {
			t.Errorf("round trip %q: got %q, n=%d, err=%v", s, got, n, err)
		}
	}
}

func TestStringDecodeErrors(t *testing.T) {
	if _, _, err := ReadString(nil); err == nil {
		t.Error("ReadString(nil) succeeded")
	}
	// Length says 10 but only 2 bytes follow.
	b := AppendString(nil, "0123456789")[:3]
	if _, _, err := ReadString(b); err == nil {
		t.Error("truncated string accepted")
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{String(""), String("bmw"), Number(0), Number(-1.5), Number(math.MaxFloat64)}
	for _, v := range vals {
		b := AppendValue(nil, v)
		got, n, err := ReadValue(b)
		if err != nil || !got.Equal(v) || n != len(b) {
			t.Errorf("round trip %v: got %v, n=%d, err=%v", v, got, n, err)
		}
	}
}

func TestValueDecodeErrors(t *testing.T) {
	if _, _, err := ReadValue(nil); err == nil {
		t.Error("empty value accepted")
	}
	if _, _, err := ReadValue([]byte{byte(KindNumber), 1, 2}); err == nil {
		t.Error("truncated number accepted")
	}
	if _, _, err := ReadValue([]byte{99, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestTripleRoundTrip(t *testing.T) {
	tr := Triple{OID: "urn:x:1", Attr: "car:name", Val: String("BMW 320d")}
	b := AppendTriple(nil, tr)
	got, n, err := ReadTriple(b)
	if err != nil || n != len(b) {
		t.Fatalf("ReadTriple: n=%d err=%v", n, err)
	}
	if got != tr {
		t.Errorf("round trip changed triple: %v -> %v", tr, got)
	}
}

func TestPostingRoundTrip(t *testing.T) {
	p := Posting{
		Index:    IndexGram,
		Triple:   Triple{OID: "o1", Attr: "name", Val: String("bmw")},
		GramText: "\x01\x01b",
		GramPos:  0,
		SrcLen:   3,
	}
	b := AppendPosting(nil, p)
	got, n, err := ReadPosting(b)
	if err != nil || n != len(b) {
		t.Fatalf("ReadPosting: n=%d err=%v", n, err)
	}
	if got != p {
		t.Errorf("round trip changed posting: %+v -> %+v", p, got)
	}
	if p.EncodedSize() != len(b) {
		t.Error("EncodedSize mismatch")
	}
}

func TestPostingRoundTripQuick(t *testing.T) {
	f := func(oid, attr, val, gram string, pos uint8, srcLen uint8, kind uint8) bool {
		p := Posting{
			Index:    IndexKind(kind % 7),
			Triple:   Triple{OID: oid, Attr: attr, Val: String(val)},
			GramText: gram,
			GramPos:  int(pos),
			SrcLen:   int(srcLen),
		}
		b := AppendPosting(nil, p)
		got, n, err := ReadPosting(b)
		return err == nil && n == len(b) && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPostingDecodeErrorsOnTruncation(t *testing.T) {
	p := Posting{Index: IndexOID, Triple: Triple{OID: "o", Attr: "a", Val: Number(1)}}
	b := AppendPosting(nil, p)
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := ReadPosting(b[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestIndexKindString(t *testing.T) {
	names := map[IndexKind]string{
		IndexOID: "oid", IndexAttrValue: "attrvalue", IndexValue: "value",
		IndexGram: "gram", IndexSchemaGram: "schemagram", IndexShort: "short",
		IndexCatalog: "catalog",
	}
	for k, w := range names {
		if k.String() != w {
			t.Errorf("IndexKind(%d).String() = %q, want %q", k, k.String(), w)
		}
	}
	if IndexKind(200).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestEncodingSizesReasonable(t *testing.T) {
	// The bandwidth model should charge roughly len(strings)+overhead.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		n := rng.Intn(50)
		s := make([]byte, n)
		for j := range s {
			s[j] = byte('a' + rng.Intn(26))
		}
		tr := Triple{OID: "o", Attr: "a", Val: String(string(s))}
		size := len(AppendTriple(nil, tr))
		if size < n || size > n+20 {
			t.Errorf("triple size %d for %d-byte value", size, n)
		}
	}
}
