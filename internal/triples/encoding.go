package triples

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// IndexKind identifies which index family a posting belongs to. Peers store
// postings from all families in one ordered B-tree; the key namespace keeps
// the families apart, and the kind lets operators interpret what they read.
type IndexKind uint8

const (
	// IndexOID postings implement object lookups (hash on oid).
	IndexOID IndexKind = iota
	// IndexAttrValue postings implement selections (hash on attr#value).
	IndexAttrValue
	// IndexValue postings implement keyword queries (hash on value).
	IndexValue
	// IndexGram postings implement instance-level similarity: one posting
	// per positional q-gram of the value, keyed by attr#gram.
	IndexGram
	// IndexSchemaGram postings implement schema-level similarity: one
	// posting per positional q-gram of the attribute name, keyed by gram.
	IndexSchemaGram
	// IndexShort postings duplicate values shorter than the short-string
	// limit, closing the q-gram guarantee gap (reproduction extension).
	IndexShort
	// IndexCatalog postings list each distinct attribute name once.
	IndexCatalog
)

// String names the index kind for metrics and debugging.
func (k IndexKind) String() string {
	switch k {
	case IndexOID:
		return "oid"
	case IndexAttrValue:
		return "attrvalue"
	case IndexValue:
		return "value"
	case IndexGram:
		return "gram"
	case IndexSchemaGram:
		return "schemagram"
	case IndexShort:
		return "short"
	case IndexCatalog:
		return "catalog"
	default:
		return fmt.Sprintf("indexkind(%d)", uint8(k))
	}
}

// Posting is the unit of storage at a peer and of result transfer on the
// wire. For gram postings, GramText/GramPos carry the positional q-gram and
// SrcLen the length of the string the gram was extracted from (value for
// IndexGram, attribute name for IndexSchemaGram); Algorithm 2's position and
// length filters (line 8) read them.
type Posting struct {
	Index    IndexKind
	Triple   Triple
	GramText string
	GramPos  int
	SrcLen   int
}

// Compare orders postings totally — by OID, Attr, Val, GramText, GramPos,
// Index, then SrcLen — and returns 0 only for identical postings. Peer
// stores order the postings under one key by it, so a delete descends to the
// posting it removes instead of scanning the key's run. OID leads: a dataset
// loaded in ascending oid order keeps its data order under every shared key.
// Both sides are taken by pointer, so comparing never copies a posting.
func (p *Posting) Compare(q *Posting) int {
	if c := strings.Compare(p.Triple.OID, q.Triple.OID); c != 0 {
		return c
	}
	if c := strings.Compare(p.Triple.Attr, q.Triple.Attr); c != 0 {
		return c
	}
	if c := compareValueExact(&p.Triple.Val, &q.Triple.Val); c != 0 {
		return c
	}
	if c := strings.Compare(p.GramText, q.GramText); c != 0 {
		return c
	}
	if c := cmp.Compare(p.GramPos, q.GramPos); c != 0 {
		return c
	}
	if c := cmp.Compare(p.Index, q.Index); c != 0 {
		return c
	}
	return cmp.Compare(p.SrcLen, q.SrcLen)
}

// compareValueExact is a total order on values that, unlike Value.Compare,
// tells apart every pair of distinct values: -0 from +0 and NaN payloads by
// their bits.
func compareValueExact(a, b *Value) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := strings.Compare(a.Str, b.Str); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Num, b.Num); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a.Num), math.Float64bits(b.Num))
}

// appendUvarint appends x as an unsigned varint.
func appendUvarint(b []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(b, tmp[:n]...)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadString decodes a length-prefixed string, returning it and the number of
// bytes consumed.
func ReadString(b []byte) (string, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return "", 0, fmt.Errorf("triples: bad string length varint")
	}
	if uint64(len(b)-n) < l {
		return "", 0, fmt.Errorf("triples: string truncated: need %d bytes, have %d", l, len(b)-n)
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}

// AppendValue appends a typed value: one kind byte, then either a
// length-prefixed string or 8 bytes of float64.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	if v.Kind == KindNumber {
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v.Num))
		return append(b, tmp[:]...)
	}
	return AppendString(b, v.Str)
}

// ReadValue decodes a typed value.
func ReadValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("triples: empty value encoding")
	}
	kind := ValueKind(b[0])
	switch kind {
	case KindNumber:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("triples: number value truncated")
		}
		return Number(math.Float64frombits(binary.BigEndian.Uint64(b[1:9]))), 9, nil
	case KindString:
		s, n, err := ReadString(b[1:])
		if err != nil {
			return Value{}, 0, err
		}
		return String(s), 1 + n, nil
	default:
		return Value{}, 0, fmt.Errorf("triples: unknown value kind %d", kind)
	}
}

// AppendTriple appends a triple.
func AppendTriple(b []byte, t Triple) []byte {
	b = AppendString(b, t.OID)
	b = AppendString(b, t.Attr)
	return AppendValue(b, t.Val)
}

// ReadTriple decodes a triple.
func ReadTriple(b []byte) (Triple, int, error) {
	var t Triple
	oid, n1, err := ReadString(b)
	if err != nil {
		return t, 0, err
	}
	attr, n2, err := ReadString(b[n1:])
	if err != nil {
		return t, 0, err
	}
	val, n3, err := ReadValue(b[n1+n2:])
	if err != nil {
		return t, 0, err
	}
	return Triple{OID: oid, Attr: attr, Val: val}, n1 + n2 + n3, nil
}

// AppendPosting appends a posting.
func AppendPosting(b []byte, p Posting) []byte {
	b = append(b, byte(p.Index))
	b = AppendTriple(b, p.Triple)
	b = AppendString(b, p.GramText)
	b = appendUvarint(b, uint64(p.GramPos))
	b = appendUvarint(b, uint64(p.SrcLen))
	return b
}

// ReadPosting decodes a posting.
func ReadPosting(b []byte) (Posting, int, error) {
	var p Posting
	if len(b) == 0 {
		return p, 0, fmt.Errorf("triples: empty posting encoding")
	}
	p.Index = IndexKind(b[0])
	off := 1
	t, n, err := ReadTriple(b[off:])
	if err != nil {
		return p, 0, err
	}
	p.Triple = t
	off += n
	g, n, err := ReadString(b[off:])
	if err != nil {
		return p, 0, err
	}
	p.GramText = g
	off += n
	pos, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return p, 0, fmt.Errorf("triples: bad gram position varint")
	}
	p.GramPos = int(pos)
	off += n
	srcLen, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return p, 0, fmt.Errorf("triples: bad source length varint")
	}
	p.SrcLen = int(srcLen)
	off += n
	return p, off, nil
}

// EncodedSize reports the wire size of the posting.
func (p Posting) EncodedSize() int {
	return len(AppendPosting(nil, p))
}
