package model

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Key is a byte-encoded region identifier. Within one region set, keys
// are the concatenated big-endian encodings of the region's codes for
// every non-ALL dimension (in schema order), with the sign bit flipped
// so that lexicographic byte order equals signed numeric order. Keys
// from the same region set are totally ordered; that order is
// consistent with generalization (Proposition 1), which is what makes
// watermark-based finalization a byte comparison.
type Key string

// appendCode appends the order-preserving 8-byte encoding of a code.
func appendCode(b []byte, code int64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(code)^(1<<63))
	return append(b, buf[:]...)
}

// AppendKeyCode appends the order-preserving 8-byte encoding of one
// code — the building block of Key — for engines that assemble keys
// into reusable buffers instead of allocating through a codec.
func AppendKeyCode(b []byte, code int64) []byte {
	return appendCode(b, code)
}

// decodeCode reads one code back out of its 8-byte encoding.
func decodeCode(b []byte) int64 {
	return int64(binary.BigEndian.Uint64(b) ^ (1 << 63))
}

// KeyCodec encodes and decodes region keys for one region set (one
// granularity vector over one schema).
type KeyCodec struct {
	schema *Schema
	gran   Gran
	dims   []int // indices of non-ALL dimensions, ascending
}

// NewKeyCodec builds a codec for the region set with granularity g.
// g must already be normalized.
func NewKeyCodec(s *Schema, g Gran) *KeyCodec {
	c := &KeyCodec{schema: s, gran: g.Clone()}
	for i, d := range s.dims {
		if g[i] != d.ALL() {
			c.dims = append(c.dims, i)
		}
	}
	return c
}

// Gran returns the codec's granularity vector.
func (c *KeyCodec) Gran() Gran { return c.gran }

// Schema returns the schema the codec was built over.
func (c *KeyCodec) Schema() *Schema { return c.schema }

// Width returns the number of encoded components in a key.
func (c *KeyCodec) Width() int { return len(c.dims) }

// KeyBytes returns the byte length of keys produced by this codec.
func (c *KeyCodec) KeyBytes() int { return 8 * len(c.dims) }

// FromBase maps a record's base coordinates into this region set's key:
// the region of gran(c) that covers the record.
func (c *KeyCodec) FromBase(dims []int64) Key {
	b := make([]byte, 0, 8*len(c.dims))
	for _, i := range c.dims {
		b = appendCode(b, c.schema.dims[i].Up(0, c.gran[i], dims[i]))
	}
	return Key(b)
}

// FromCodes builds a key from codes already at the codec's granularity,
// one per non-ALL dimension in schema order. A length mismatch is a
// programmer error and panics; callers deriving code vectors from
// on-disk data must use FromCodesChecked instead.
func (c *KeyCodec) FromCodes(codes []int64) Key {
	k, err := c.FromCodesChecked(codes)
	if err != nil {
		panic(err.Error())
	}
	return k
}

// FromCodesChecked is FromCodes returning an error on a length
// mismatch, for callers whose code vectors come from untrusted on-disk
// data (spill files, saved results) rather than compiled workflows.
func (c *KeyCodec) FromCodesChecked(codes []int64) (Key, error) {
	if len(codes) != len(c.dims) {
		return "", fmt.Errorf("model: FromCodes got %d codes, codec has %d non-ALL dims", len(codes), len(c.dims))
	}
	b := make([]byte, 0, 8*len(codes))
	for _, v := range codes {
		b = appendCode(b, v)
	}
	return Key(b), nil
}

// Decode extracts the region's codes (one per non-ALL dimension, in
// schema order). A length mismatch is a programmer error and panics;
// callers decoding keys reconstructed from on-disk data must use
// DecodeChecked instead.
func (c *KeyCodec) Decode(k Key) []int64 {
	out, err := c.DecodeChecked(k)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// DecodeChecked is Decode returning an error on a length mismatch, for
// keys that crossed a serialization boundary.
func (c *KeyCodec) DecodeChecked(k Key) ([]int64, error) {
	if len(k) != 8*len(c.dims) {
		return nil, fmt.Errorf("model: Decode got key of %d bytes, expected %d", len(k), 8*len(c.dims))
	}
	out := make([]int64, len(c.dims))
	for j := range c.dims {
		out[j] = decodeCode([]byte(k[8*j : 8*j+8]))
	}
	return out, nil
}

// FullDecode extracts one code per schema dimension from a key, with
// D_ALL positions set to 0 (the single ALL value).
func (c *KeyCodec) FullDecode(k Key) []int64 {
	out := make([]int64, c.schema.NumDims())
	c.FullDecodeInto(out, k)
	return out
}

// FullDecodeInto is FullDecode into dst, which must hold one code per
// schema dimension, for callers that decode many keys through one
// reusable buffer.
func (c *KeyCodec) FullDecodeInto(dst []int64, k Key) {
	clear(dst)
	for j, i := range c.dims {
		dst[i] = decodeCode([]byte(k[8*j : 8*j+8]))
	}
}

// DimPos returns the position of dimension i within the key, or -1 if
// the dimension is at D_ALL and therefore not encoded.
func (c *KeyCodec) DimPos(i int) int {
	for j, d := range c.dims {
		if d == i {
			return j
		}
		if d > i {
			break
		}
	}
	return -1
}

// CodeAt extracts the code of dimension i from a key. The dimension
// must be encoded (not at D_ALL).
func (c *KeyCodec) CodeAt(k Key, dim int) int64 {
	j := c.DimPos(dim)
	if j < 0 {
		panic(fmt.Sprintf("model: dimension %d is at D_ALL in this region set", dim))
	}
	return decodeCode([]byte(k[8*j : 8*j+8]))
}

// WithCodeAt returns a copy of the key with dimension dim's code
// replaced. Used to enumerate sibling (neighbor) regions.
func (c *KeyCodec) WithCodeAt(k Key, dim int, code int64) Key {
	j := c.DimPos(dim)
	if j < 0 {
		panic(fmt.Sprintf("model: dimension %d is at D_ALL in this region set", dim))
	}
	b := []byte(k)
	out := make([]byte, len(b))
	copy(out, b)
	binary.BigEndian.PutUint64(out[8*j:], uint64(code)^(1<<63))
	return Key(out)
}

// UpTo rolls a key up to a coarser granularity. to must satisfy
// gran(c) <=_G to.
func (c *KeyCodec) UpTo(k Key, to *KeyCodec) Key {
	return Key(c.AppendUpTo(make([]byte, 0, 8*len(to.dims)), k, to))
}

// AppendUpTo appends UpTo(k, to)'s bytes to b, for callers that roll
// many keys up through one reusable buffer.
func (c *KeyCodec) AppendUpTo(b []byte, k Key, to *KeyCodec) []byte {
	j := 0
	for _, i := range to.dims {
		for c.dims[j] != i {
			j++
		}
		code := decodeCode([]byte(k[8*j : 8*j+8]))
		b = appendCode(b, c.schema.dims[i].Up(c.gran[i], to.gran[i], code))
	}
	return b
}

// Format renders a key for human consumption, e.g.
// "t:2002-02-14, U:1.2.3.*".
func (c *KeyCodec) Format(k Key) string {
	codes := c.Decode(k)
	var b strings.Builder
	for j, i := range c.dims {
		if j > 0 {
			b.WriteString(", ")
		}
		d := c.schema.dims[i]
		fmt.Fprintf(&b, "%s:%s", d.Name(), d.FormatCode(c.gran[i], codes[j]))
	}
	if len(c.dims) == 0 {
		b.WriteString("ALL")
	}
	return b.String()
}

// SortPart is one component of a sort key or stream order vector: a
// dimension attribute at a specific domain level.
type SortPart struct {
	Dim int
	Lvl Level
}

// SortKey is an order vector <K_1:D_1, ..., K_m:D_m>: the dataset (or a
// stream) is sorted by the mapped code of each part in turn. Per
// Proposition 2, all stream orders share the dataset sort key's
// attribute sequence and differ only in granularity, so SortKey doubles
// as the stream-order representation (parts at D_ALL carry no
// information and act as padding).
type SortKey []SortPart

// String renders the sort key in the paper's notation.
func (k SortKey) String(s *Schema) string {
	var b strings.Builder
	b.WriteByte('<')
	for j, p := range k {
		if j > 0 {
			b.WriteString(", ")
		}
		d := s.dims[p.Dim]
		fmt.Fprintf(&b, "%s:%s", d.Name(), d.DomainName(p.Lvl))
	}
	b.WriteByte('>')
	return b.String()
}

// Normalize resolves symbolic levels and validates dimensions.
func (k SortKey) Normalize(s *Schema) (SortKey, error) {
	out := make(SortKey, len(k))
	for j, p := range k {
		if p.Dim < 0 || p.Dim >= s.NumDims() {
			return nil, fmt.Errorf("model: sort key part %d references dimension %d (schema has %d)", j, p.Dim, s.NumDims())
		}
		l, err := s.dims[p.Dim].Resolve(p.Lvl)
		if err != nil {
			return nil, err
		}
		out[j] = SortPart{Dim: p.Dim, Lvl: l}
	}
	return out, nil
}

// RecordLess compares two records under the sort key, breaking ties by
// the full base coordinates in schema order (the tiebreak does not
// affect correctness but makes sorting deterministic for tests).
func (k SortKey) RecordLess(s *Schema, a, b *Record) bool {
	for _, p := range k {
		d := s.dims[p.Dim]
		av := d.Up(0, p.Lvl, a.Dims[p.Dim])
		bv := d.Up(0, p.Lvl, b.Dims[p.Dim])
		if av != bv {
			return av < bv
		}
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return a.Dims[i] < b.Dims[i]
		}
	}
	return false
}
