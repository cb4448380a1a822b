// Package keys implements the binary key space used by the P-Grid overlay.
//
// P-Grid identifies every peer and every datum by a bit string ("key"). Data
// keys are produced by an order-preserving hash so that lexicographically
// close values receive close keys; this is what makes range and similarity
// queries efficient on the overlay (see Section 2 and 3 of the paper).
//
// A Key is an immutable sequence of bits of arbitrary length. The bit at
// index 0 is the most significant one; comparison is lexicographic on the bit
// sequence with the usual "prefix sorts first" rule, which matches the
// ordering of the underlying values for the encoders in this package.
package keys

import (
	"bytes"
	"fmt"
	"math"
	"strings"
)

// Key is an immutable bit string. The zero value is the empty key, which is a
// prefix of every key and the root of the P-Grid trie.
type Key struct {
	bits []byte // packed big-endian: bit i lives at bits[i/8], mask 1<<(7-i%8)
	n    int    // number of valid bits
}

// Empty is the zero-length key (the trie root).
var Empty = Key{}

// FromBits parses a key from a string of '0' and '1' characters.
// It panics on any other character; it is intended for literals in tests and
// tools. Use Parse for error-returning behaviour.
func FromBits(s string) Key {
	k, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return k
}

// Parse parses a key from a string of '0' and '1' characters.
func Parse(s string) (Key, error) {
	bits := make([]byte, (len(s)+7)/8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			bits[i/8] |= 1 << (7 - uint(i)%8)
		case '0':
			// already zero
		default:
			return Key{}, fmt.Errorf("keys: invalid bit character %q in %q", s[i], s)
		}
	}
	return Key{bits: bits, n: len(s)}, nil
}

// FromBytes returns the key consisting of all bits of b, in order.
// The byte slice is copied.
func FromBytes(b []byte) Key {
	c := make([]byte, len(b))
	copy(c, b)
	return Key{bits: c, n: len(b) * 8}
}

// FromPackedBits returns the key holding the first n bits of the packed
// big-endian representation b (the layout Bytes returns). It copies b and
// zeroes any slack bits past n, so callers may reuse their buffer. It panics
// if b is too short for n bits. This is the one-allocation constructor hot
// paths use to materialize computed keys (e.g. hashed rank keys) without
// bit-by-bit appends.
func FromPackedBits(b []byte, n int) Key {
	nb := (n + 7) / 8
	if len(b) < nb {
		panic(fmt.Sprintf("keys: FromPackedBits needs %d bytes for %d bits, got %d", nb, n, len(b)))
	}
	c := make([]byte, nb)
	copy(c, b[:nb])
	if rem := uint(n % 8); rem != 0 && nb > 0 {
		c[nb-1] &= 0xFF << (8 - rem)
	}
	return Key{bits: c, n: n}
}

// CloneInto appends k's packed representation to arena and returns an equal
// key backed by the appended region, together with the grown arena. It lets
// callers compact many keys into one allocation instead of pinning whatever
// buffers the originals alias. Size the arena's capacity up front: a growth
// reallocation strands earlier clones on the old backing array (correct, but
// no longer compact).
func (k Key) CloneInto(arena []byte) (Key, []byte) {
	start := len(arena)
	arena = append(arena, k.bits...)
	return Key{bits: arena[start:len(arena):len(arena)], n: k.n}, arena
}

// Len reports the number of bits in k.
func (k Key) Len() int { return k.n }

// Bit returns the bit at index i (0 is most significant) as 0 or 1.
// It panics if i is out of range.
func (k Key) Bit(i int) int {
	if i < 0 || i >= k.n {
		panic(fmt.Sprintf("keys: bit index %d out of range [0,%d)", i, k.n))
	}
	return int(k.bits[i/8]>>(7-uint(i)%8)) & 1
}

// Prefix returns the key consisting of the first l bits of k.
// It panics if l is negative or greater than k.Len().
func (k Key) Prefix(l int) Key {
	if l < 0 || l > k.n {
		panic(fmt.Sprintf("keys: prefix length %d out of range [0,%d]", l, k.n))
	}
	nb := (l + 7) / 8
	bits := make([]byte, nb)
	copy(bits, k.bits[:nb])
	if rem := uint(l % 8); rem != 0 && nb > 0 {
		bits[nb-1] &= 0xFF << (8 - rem)
	}
	return Key{bits: bits, n: l}
}

// HasPrefix reports whether p is a prefix of k (every key has the empty
// prefix).
func (k Key) HasPrefix(p Key) bool {
	if p.n > k.n {
		return false
	}
	return k.CommonPrefixLen(p) == p.n
}

// CommonPrefixLen returns the length of the longest common prefix of k and o.
func (k Key) CommonPrefixLen(o Key) int {
	min := k.n
	if o.n < min {
		min = o.n
	}
	// Compare whole bytes first.
	nb := min / 8
	i := 0
	for ; i < nb; i++ {
		if k.bits[i] != o.bits[i] {
			break
		}
	}
	l := i * 8
	for l < min && k.Bit(l) == o.Bit(l) {
		l++
	}
	return l
}

// AppendBit returns a new key with bit b (0 or 1) appended.
func (k Key) AppendBit(b int) Key {
	if b != 0 && b != 1 {
		panic(fmt.Sprintf("keys: invalid bit %d", b))
	}
	nb := (k.n + 8) / 8
	bits := make([]byte, nb)
	copy(bits, k.bits)
	if b == 1 {
		bits[k.n/8] |= 1 << (7 - uint(k.n)%8)
	}
	return Key{bits: bits, n: k.n + 1}
}

// Concat returns the concatenation k || o.
func (k Key) Concat(o Key) Key {
	out := Key{bits: make([]byte, (k.n+o.n+7)/8), n: k.n + o.n}
	copy(out.bits, k.bits[:(k.n+7)/8])
	// Clear any slack bits past k.n copied from k's last byte.
	if rem := uint(k.n % 8); rem != 0 {
		out.bits[k.n/8] &= 0xFF << (8 - rem)
	}
	if k.n%8 == 0 {
		// Byte-aligned fast path: o's packed bytes land on byte boundaries.
		// Key construction concatenates byte-shaped components (namespace
		// prefixes, strings, packed hashes) almost exclusively, so the
		// bit-by-bit loop below is the cold path.
		copy(out.bits[k.n/8:], o.bits[:(o.n+7)/8])
		return out
	}
	for i := 0; i < o.n; i++ {
		if o.Bit(i) == 1 {
			j := k.n + i
			out.bits[j/8] |= 1 << (7 - uint(j)%8)
		}
	}
	return out
}

// FlipLast returns k with its final bit inverted. In P-Grid notation this is
// the path of the complementary subtrie at level Len(): for a peer path pi,
// pi.Prefix(l).FlipLast() addresses the sibling subtrie referenced at routing
// level l. It panics on the empty key.
func (k Key) FlipLast() Key {
	if k.n == 0 {
		panic("keys: FlipLast on empty key")
	}
	bits := make([]byte, len(k.bits))
	copy(bits, k.bits)
	i := k.n - 1
	bits[i/8] ^= 1 << (7 - uint(i)%8)
	return Key{bits: bits, n: k.n}
}

// Compare orders keys lexicographically on their bit sequences; if one key is
// a prefix of the other, the shorter key sorts first. The result is -1, 0 or
// +1. This ordering is consistent with the order-preserving encoders below:
// StringKey(a) < StringKey(b) iff a < b, NumberKey(x) < NumberKey(y) iff x < y.
//
// Because every constructor zeroes the slack bits past n, bit-lexicographic
// order with the prefix rule coincides with byte-lexicographic order of the
// packed representations followed by a length tiebreak: a differing bit
// dominates its byte, and in the prefix case the shorter key's zero padding
// never sorts it after the longer key. bytes.Compare is the load and query
// hot spot (balancing-sample sort, hash-rank searches, per-shard batch sorts,
// every B-tree descent), so this must stay a memcmp.
func (k Key) Compare(o Key) int {
	if c := bytes.Compare(k.bits, o.bits); c != 0 {
		return c
	}
	switch {
	case k.n < o.n:
		return -1
	case k.n > o.n:
		return 1
	}
	return 0
}

// Equal reports whether k and o hold identical bit sequences.
func (k Key) Equal(o Key) bool { return k.Compare(o) == 0 }

// Less reports whether k sorts strictly before o.
func (k Key) Less(o Key) bool { return k.Compare(o) < 0 }

// String renders the key as a string of '0'/'1' characters (possibly empty).
func (k Key) String() string {
	var b strings.Builder
	b.Grow(k.n)
	for i := 0; i < k.n; i++ {
		b.WriteByte('0' + byte(k.Bit(i)))
	}
	return b.String()
}

// Bytes returns the packed big-endian bit representation; the final byte is
// zero-padded. The result is a copy and safe to modify.
func (k Key) Bytes() []byte {
	c := make([]byte, (k.n+7)/8)
	copy(c, k.bits)
	return c
}

// PackedLen reports the number of bytes in the packed representation,
// ceil(Len()/8).
func (k Key) PackedLen() int { return len(k.bits) }

// PackedByte returns byte i of the packed big-endian representation without
// copying (the final byte is zero-padded). Radix sorts over keys use it for
// allocation-free byte access; i must be below PackedLen.
func (k Key) PackedByte(i int) byte { return k.bits[i] }

// Hash64 returns a 64-bit FNV-1a hash of the bit sequence (packed bytes, then
// the bit length, so keys differing only in trailing zero bits hash apart).
// Equal keys hash equal; it allocates nothing. Callers that can tolerate a
// false positive use it as a compact stand-in for the key.
func (k Key) Hash64() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range k.bits {
		h = (h ^ uint64(b)) * prime64
	}
	return (h ^ uint64(k.n)) * prime64
}

// MaxInPrefix returns the largest key of the given total bit length that still
// has k as prefix (k padded with 1-bits). It panics if length < k.Len().
func (k Key) MaxInPrefix(length int) Key {
	if length < k.n {
		panic("keys: MaxInPrefix length shorter than key")
	}
	out := k
	for out.n < length {
		out = out.AppendBit(1)
	}
	return out
}

// MinInPrefix returns the smallest key of the given total bit length that
// still has k as prefix (k padded with 0-bits).
func (k Key) MinInPrefix(length int) Key {
	if length < k.n {
		panic("keys: MinInPrefix length shorter than key")
	}
	out := k
	for out.n < length {
		out = out.AppendBit(0)
	}
	return out
}

// ---------------------------------------------------------------------------
// Order-preserving encoders
// ---------------------------------------------------------------------------

// StringKey returns the order-preserving hash of a string: its raw bytes as a
// bit sequence. Lexicographic order on strings equals key order, which is the
// property the paper's range and prefix queries require (Section 2:
// "order-preserving hash function").
func StringKey(s string) Key {
	return FromBytes([]byte(s))
}

// NumberKey returns a 64-bit order-preserving encoding of a float64:
// x < y implies NumberKey(x) < NumberKey(y). NaN is mapped above +Inf so that
// the encoding remains total.
func NumberKey(f float64) Key {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u // negative numbers: flip all bits
	} else {
		u |= 1 << 63 // non-negative: set the sign bit
	}
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (56 - 8*uint(i)))
	}
	return FromBytes(b[:])
}

// DecodeNumberKey inverts NumberKey. The key must be exactly 64 bits.
func DecodeNumberKey(k Key) (float64, error) {
	if k.n != 64 {
		return 0, fmt.Errorf("keys: number key must be 64 bits, got %d", k.n)
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(k.bits[i])
	}
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u), nil
}

// Separator is the byte the paper uses to concatenate attribute names and
// values ("we hash Ai#vi where # denotes concatenation"). Attribute names must
// not contain it; triples.ValidateAttr enforces that.
const Separator = '#'

// Interval is a closed key interval [Lo, Hi] used by range queries.
//
// Two boundary conventions apply:
//
//   - Prefix extension: keys extending Hi count as inside (a query
//     ["car#a", "car#b"] must include "car#bzz").
//   - Region end: when Lo sorts after Hi but has Hi as prefix, the interval
//     means "from Lo to the end of Hi's subtrie" — the form upper-unbounded
//     scans within a key region take ([ "A#w#s-gamma", end of "A#w#s" ]).
type Interval struct {
	Lo, Hi Key
}

// regionEnd reports whether the interval uses the region-end convention.
func (iv Interval) regionEnd() bool {
	return iv.Lo.Compare(iv.Hi) > 0 && iv.Lo.HasPrefix(iv.Hi)
}

// Contains reports whether k lies in the interval under the conventions
// documented on Interval.
func (iv Interval) Contains(k Key) bool {
	if iv.regionEnd() {
		return k.HasPrefix(iv.Hi) && (iv.Lo.Compare(k) <= 0 || k.HasPrefix(iv.Lo))
	}
	if k.HasPrefix(iv.Lo) || k.HasPrefix(iv.Hi) {
		return true
	}
	return iv.Lo.Compare(k) <= 0 && k.Compare(iv.Hi) <= 0
}

// OverlapsPrefix reports whether any key with prefix p can lie inside the
// interval. It is the pruning test of the shower range-query algorithm: a
// subtrie rooted at p needs to receive the query iff this is true.
func (iv Interval) OverlapsPrefix(p Key) bool {
	if iv.regionEnd() {
		// p's subtrie must intersect Hi's region and reach keys >= Lo.
		if !p.HasPrefix(iv.Hi) && !iv.Hi.HasPrefix(p) {
			return false
		}
		if iv.Hi.HasPrefix(p) || p.HasPrefix(iv.Lo) || iv.Lo.HasPrefix(p) {
			return true
		}
		return iv.Lo.Compare(p) < 0
	}
	// The subtrie at p spans [p000..., p111...]. It overlaps [Lo, Hi] unless
	// it lies entirely below Lo or entirely above Hi.
	if p.HasPrefix(iv.Lo) || p.HasPrefix(iv.Hi) || iv.Lo.HasPrefix(p) || iv.Hi.HasPrefix(p) {
		return true
	}
	return iv.Lo.Compare(p) < 0 && p.Compare(iv.Hi) < 0
}

// Valid reports whether the interval is non-empty under either convention.
func (iv Interval) Valid() bool {
	return iv.Lo.Compare(iv.Hi) <= 0 || iv.regionEnd()
}

// String renders the interval for diagnostics.
func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s]", iv.Lo, iv.Hi)
}
