// Package triples implements the paper's vertically-oriented data model:
// every tuple (oid, v1, ..., vn) of a relation R(A1, ..., An) is stored as n
// triples (oid, A1, v1), ..., (oid, An, vn) (Section 3). Values are typed —
// VQL's dist() uses edit distance for strings and absolute (1-D Euclidean)
// distance for numbers — and attribute names may carry a namespace prefix
// ("car:name") to distinguish relations.
//
// The package also defines the compact binary wire encoding used for the
// data-volume accounting of the evaluation: every simulated message reports
// the byte size its payload would have on a real network.
package triples

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/keys"
)

// ValueKind discriminates the two value types VQL supports.
type ValueKind uint8

const (
	// KindString is a string value; dist() is edit distance.
	KindString ValueKind = iota
	// KindNumber is a float64 value; dist() is absolute difference.
	KindNumber
)

// String names the value kind.
func (k ValueKind) String() string {
	if k == KindNumber {
		return "number"
	}
	return "string"
}

// Value is a typed attribute value.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
}

// String returns a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Number returns a numeric value.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == KindString {
		return v.Str == o.Str
	}
	return v.Num == o.Num
}

// Compare orders values: numbers before strings, then by natural order.
// The cross-kind case only matters for deterministic output ordering.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind == KindNumber {
			return -1
		}
		return 1
	}
	if v.Kind == KindNumber {
		switch {
		case v.Num < o.Num:
			return -1
		case v.Num > o.Num:
			return 1
		}
		return 0
	}
	return strings.Compare(v.Str, o.Str)
}

// Render formats the value for query results and shells.
func (v Value) Render() string {
	if v.Kind == KindNumber {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// Key returns the order-preserving key encoding of the bare value, as used in
// the value index (keyword-like queries "any attribute = v", Section 3(c)).
func (v Value) Key() keys.Key {
	if v.Kind == KindNumber {
		return keys.NumberKey(v.Num)
	}
	return keys.StringKey(v.Str)
}

// Triple is one (oid, attribute, value) fact.
type Triple struct {
	OID  string
	Attr string
	Val  Value
}

// String renders the triple in the paper's (oid, A, v) notation.
func (t Triple) String() string {
	return fmt.Sprintf("(%s, %s, %s)", t.OID, t.Attr, t.Val.Render())
}

// Validation errors.
var (
	ErrEmptyOID    = errors.New("triples: empty oid")
	ErrEmptyAttr   = errors.New("triples: empty attribute name")
	ErrBadAttrChar = errors.New("triples: attribute name contains reserved character")
	ErrBadOIDChar  = errors.New("triples: oid contains reserved character")
)

// reservedByte reports whether c may not appear in oids or attribute names:
// the key separator '#' and the low control bytes used for gram padding.
func reservedByte(c byte) bool {
	return c == keys.Separator || c < 0x20
}

// ValidateAttr checks that an attribute name is usable as a key component.
// Namespace prefixes ("ns:attr") are allowed.
func ValidateAttr(attr string) error {
	if attr == "" {
		return ErrEmptyAttr
	}
	for i := 0; i < len(attr); i++ {
		if reservedByte(attr[i]) {
			return fmt.Errorf("%w: %q", ErrBadAttrChar, attr)
		}
	}
	return nil
}

// ValidateOID checks that an oid (e.g. a URI) is usable as a key component.
func ValidateOID(oid string) error {
	if oid == "" {
		return ErrEmptyOID
	}
	for i := 0; i < len(oid); i++ {
		if reservedByte(oid[i]) {
			return fmt.Errorf("%w: %q", ErrBadOIDChar, oid)
		}
	}
	return nil
}

// Validate checks the whole triple.
func (t Triple) Validate() error {
	if err := ValidateOID(t.OID); err != nil {
		return err
	}
	return ValidateAttr(t.Attr)
}

// Tuple is a horizontal row: an oid plus named attribute values. Field order
// is preserved so decomposition and test output stay deterministic.
type Tuple struct {
	OID    string
	Fields []Field
}

// Field is one named value of a tuple.
type Field struct {
	Name string
	Val  Value
}

// NewTuple builds a tuple from alternating name, value pairs, e.g.
// NewTuple("car1", "name", String("BMW"), "hp", Number(210)).
func NewTuple(oid string, pairs ...any) (Tuple, error) {
	if len(pairs)%2 != 0 {
		return Tuple{}, fmt.Errorf("triples: NewTuple needs name/value pairs, got %d items", len(pairs))
	}
	t := Tuple{OID: oid}
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			return Tuple{}, fmt.Errorf("triples: field name %v is not a string", pairs[i])
		}
		var v Value
		switch x := pairs[i+1].(type) {
		case Value:
			v = x
		case string:
			v = String(x)
		case float64:
			v = Number(x)
		case int:
			v = Number(float64(x))
		default:
			return Tuple{}, fmt.Errorf("triples: unsupported value type %T for field %s", x, name)
		}
		t.Fields = append(t.Fields, Field{Name: name, Val: v})
	}
	return t, nil
}

// MustTuple is NewTuple that panics on error; for literals in tests/examples.
func MustTuple(oid string, pairs ...any) Tuple {
	t, err := NewTuple(oid, pairs...)
	if err != nil {
		panic(err)
	}
	return t
}

// Get returns the first value of the named field.
func (t Tuple) Get(name string) (Value, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Val, true
		}
	}
	return Value{}, false
}

// Decompose converts a tuple into its vertical triples. Null (absent) values
// are simply not represented, per Section 3.
func Decompose(t Tuple) ([]Triple, error) {
	if err := ValidateOID(t.OID); err != nil {
		return nil, err
	}
	out := make([]Triple, 0, len(t.Fields))
	for _, f := range t.Fields {
		if err := ValidateAttr(f.Name); err != nil {
			return nil, err
		}
		out = append(out, Triple{OID: t.OID, Attr: f.Name, Val: f.Val})
	}
	return out, nil
}

// Recompose assembles a tuple from triples sharing one oid. Attribute order
// is normalized alphabetically so the result is deterministic; duplicate
// attributes (the schema is open, users may extend it) are all kept.
func Recompose(oid string, ts []Triple) Tuple {
	fields := make([]Field, 0, len(ts))
	for _, t := range ts {
		if t.OID == oid {
			fields = append(fields, Field{Name: t.Attr, Val: t.Val})
		}
	}
	sort.SliceStable(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
	return Tuple{OID: oid, Fields: fields}
}

// ---------------------------------------------------------------------------
// Index key construction (Section 3: each triple is inserted three times, plus
// q-gram postings per Section 4).
// ---------------------------------------------------------------------------

// Index namespaces. Each index family lives under its own single-byte prefix
// so that the key space partitions cleanly and range scans never cross
// families. (The paper hashes raw oids/values; a namespace byte preserves all
// locality properties while avoiding accidental collisions between families.)
const (
	nsOID    = "O"
	nsAttr   = "A"
	nsValue  = "V"
	nsGram   = "G"
	nsSchema = "S"
	nsShort  = "W"
	nsCat    = "N"
)

// term terminates every variable-length final key component. Terminators
// guarantee that no stored key is a proper bit-prefix of another stored key,
// which in turn guarantees that P-Grid construction assigns every stored key
// a leaf whose path is a prefix of the key (so exact lookups always route to
// the single responsible partition). Terminating a string preserves its
// lexicographic order.
const term = "\x00"

// Kind bytes keep numeric and string encodings of the same attribute from
// overlapping bit-wise; all numbers sort before all strings within an
// attribute.
const (
	kindByteNumber = "n"
	kindByteString = "s"
)

func nsKey(ns string, parts ...string) keys.Key {
	var b strings.Builder
	b.WriteString(ns)
	for _, p := range parts {
		b.WriteByte(keys.Separator)
		b.WriteString(p)
	}
	return keys.StringKey(b.String())
}

// valueSuffix renders the final key component of a typed value.
func valueSuffix(v Value) keys.Key {
	if v.Kind == KindNumber {
		return keys.StringKey(kindByteNumber).Concat(keys.NumberKey(v.Num))
	}
	return keys.StringKey(kindByteString + v.Str + term)
}

// ErrBadValueChar reports a string value containing reserved control bytes.
var ErrBadValueChar = errors.New("triples: string value contains reserved control byte")

// ValidateValue checks that a string value avoids the reserved low control
// bytes (the key terminator 0x00 and the gram padding bytes 0x01, 0x02).
func ValidateValue(v Value) error {
	if v.Kind != KindString {
		return nil
	}
	for i := 0; i < len(v.Str); i++ {
		if v.Str[i] <= 0x02 {
			return fmt.Errorf("%w: %q", ErrBadValueChar, v.Str)
		}
	}
	return nil
}

// OIDKey is the object-lookup key: hashing on oid supports object
// reconstruction (Section 3(a)).
func OIDKey(oid string) keys.Key { return nsKey(nsOID, oid+term) }

// AttrValueKey is the selection key: hashing on Ai#vi supports selections and
// range queries on one attribute (Section 3(b)).
func AttrValueKey(attr string, v Value) keys.Key {
	return nsKey(nsAttr, attr, "").Concat(valueSuffix(v))
}

// AttrPrefix is the common prefix of all AttrValueKeys of one attribute; a
// range scan below it visits the attribute's triples in value order.
func AttrPrefix(attr string) keys.Key { return nsKey(nsAttr, attr, "") }

// AllAttrsPrefix is the common prefix of the whole attribute-value index
// family; scanning it visits every triple once, ordered by attribute then
// value. The expensive schema-level variants of the operators use it.
func AllAttrsPrefix() keys.Key { return nsKey(nsAttr, "") }

// AttrStringPrefix is the common prefix of the string-valued keys of one
// attribute, used by string range scans that must skip numeric values.
func AttrStringPrefix(attr string) keys.Key {
	return nsKey(nsAttr, attr, "").Concat(keys.StringKey(kindByteString))
}

// AttrValuePrefixKey is the common prefix of every string value of attr that
// starts with the given value prefix (no terminator, so extensions match);
// the access path of value-prefix (substring-style) selections.
func AttrValuePrefixKey(attr, valuePrefix string) keys.Key {
	return nsKey(nsAttr, attr, "").Concat(keys.StringKey(kindByteString + valuePrefix))
}

// ValueKey is the keyword-query key: hashing on vi supports "any attribute =
// v" queries (Section 3(c)).
func ValueKey(v Value) keys.Key {
	return nsKey(nsValue, "").Concat(valueSuffix(v))
}

// GramKey is the instance-level q-gram posting key: key(Ai#q) for a q-gram of
// the value (Section 4).
func GramKey(attr, gramText string) keys.Key {
	return nsKey(nsGram, attr, gramText+term)
}

// SchemaGramKey is the schema-level q-gram posting key: key(q) for a q-gram
// of the attribute name (Section 4).
func SchemaGramKey(gramText string) keys.Key {
	return nsKey(nsSchema, gramText+term)
}

// ShortValueKey indexes values shorter than the store's short-string limit so
// similarity lookups below the q-gram guarantee threshold stay complete; see
// strdist.GuaranteeThreshold. This index is this reproduction's (documented)
// extension closing the paper's short-string gap.
func ShortValueKey(attr string, v Value) keys.Key {
	return nsKey(nsShort, attr, "").Concat(valueSuffix(v))
}

// ShortValuePrefix is the scan prefix of the short-value index of attr.
func ShortValuePrefix(attr string) keys.Key { return nsKey(nsShort, attr, "") }

// CatalogKey indexes each distinct attribute name once, enabling complete
// schema-level similarity for attribute names below the gram guarantee
// threshold (e.g. "hp").
func CatalogKey(attr string) keys.Key { return nsKey(nsCat, attr+term) }

// CatalogPrefix is the scan prefix of the attribute catalog.
func CatalogPrefix() keys.Key { return nsKey(nsCat, "") }
