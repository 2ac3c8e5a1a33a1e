package scan

import "math/bits"

// KeyPacker packs a set's order-encoded comparator columns into the bits
// their values span — a normalized key (Graefe, "Implementing Sorting in
// Database Systems", ACM CSUR 2006). Column t, whose values over the set
// lie in [lo[t], hi[t]], becomes a field of bits.Len64(hi[t]-lo[t]) bits
// holding v - lo[t]. Fields are laid out most significant first into as
// few uint64 words as hold them; no field straddles two words, and each
// word's fields end at its bit 0, so a word's value is no wider than its
// fields. Comparing two rows' packed words lexicographically therefore
// compares their columns lexicographically, and IdxSorter orders packed
// rows exactly as it orders the columns. A column constant over the set
// orders nothing and takes no bits; a set whose columns each need 64
// bits packs one column to a word.
//
// The external sort packs each chunk and sortscan each flush batch, so
// the zero value is ready to use and one packer is re-planned per set.
type KeyPacker struct {
	lo     []uint64 // every column's least value, for Value
	fields []PackField
	words  int
}

// PackField is one varying column's place in a packed row.
type PackField struct {
	Col   int // the comparator column
	lo    uint64
	word  int
	shift uint
	width uint
}

// Plan lays out columns whose values lie in [lo[t], hi[t]] and returns
// the packed width in words. A set of no rows packs to no words: pass
// lo == hi.
func (p *KeyPacker) Plan(lo, hi []uint64) int {
	p.lo = append(p.lo[:0], lo...)
	p.fields = p.fields[:0]
	p.words = 0
	used := uint(64) // bits taken in the current word; a full one opens the next
	first := 0       // the current word's first field
	for t := range lo {
		width := uint(bits.Len64(hi[t] - lo[t]))
		if width == 0 {
			continue
		}
		if used+width > 64 {
			p.alignWord(first, used)
			p.words++
			used, first = 0, len(p.fields)
		}
		used += width
		p.fields = append(p.fields, PackField{Col: t, lo: lo[t], word: p.words - 1, shift: 64 - used, width: width})
	}
	p.alignWord(first, used)
	return p.words
}

// alignWord moves the current word's fields, from fields[first] on,
// down so that its last field ends at bit 0.
func (p *KeyPacker) alignWord(first int, used uint) {
	for i := first; i < len(p.fields); i++ {
		p.fields[i].shift -= 64 - used
	}
}

// Words is the packed width of a row, as the last Plan laid it out.
func (p *KeyPacker) Words() int { return p.words }

// Fields is the varying columns' fields, in column order. A row is
// packed by zeroing its Words() words and Putting each field's value.
func (p *KeyPacker) Fields() []PackField { return p.fields }

// Put adds column value v, which must lie in the column's planned
// bounds, to a packed row whose words start zeroed.
func (f *PackField) Put(row []uint64, v uint64) {
	row[f.word] |= (v - f.lo) << f.shift
}

// Value reads column col back out of a packed row.
func (p *KeyPacker) Value(row []uint64, col int) uint64 {
	for i := range p.fields {
		f := &p.fields[i]
		if f.Col == col {
			return f.lo + row[f.word]>>f.shift&(1<<f.width-1)
		}
		if f.Col > col {
			break
		}
	}
	return p.lo[col]
}
