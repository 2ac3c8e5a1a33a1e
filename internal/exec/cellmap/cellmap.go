// Package cellmap provides the open-addressing hash table behind the
// engines' cell hot path. Keys are the fixed-width encoded region keys
// (model.Key bytes) of one region set; values are dense indices into a
// caller-owned parallel slice of cell state. Compared to a Go
// map[model.Key]*cell it avoids per-lookup string conversions, per-cell
// pointer allocations, and hash-iteration overhead. DESIGN.md §hot-path
// owns the description of the layout (word-wise multiply-mix hash,
// tagged 8-byte slots indexed by the hash's high bits, linear probing
// at no more than half load inside fixed-size segments that split
// under a directory instead of doubling, and an append-only key arena
// of fixed-size pages that no growth copies), of InsertBatch's four
// probe stages, and of Freeze, which ends a table's writes and hands
// its key pages to the caller as strings.
//
// The table does not support deletion; the engines' watermark flushes
// retire whole batches of cells at once, so they rebuild the table from
// the survivors (Reset + re-Insert) instead of tombstoning.
package cellmap

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Table maps fixed-width byte keys to dense indices 0..Len()-1 in
// insertion order.
type Table struct {
	keyLen int
	// dir is the probe index's directory: entry i is the segment that
	// holds the keys whose hashes start with the depth bits of i. A
	// segment of local depth d < depth fills the 1<<(depth-d) entries
	// that share its d bits. Slot values are tag<<32 | entry index + 1,
	// 0 = empty; the tag is the hash's high 32 bits, and the directory
	// index and the home slot are both cut from them, so a slot value
	// alone says where it lives at any index size: a probe reads the key
	// arena only on a tag match, and growing never rehashes a key. Nil
	// once the table is frozen.
	dir    []segment
	depth  uint // log2(len(dir))
	dshift uint // 64 - depth
	slots  int  // slots across the distinct segments
	// pages is the key arena: entry i's key is the keyLen bytes at
	// (i%PageKeys)*keyLen in page i/PageKeys. Page 0 starts at firstKeys
	// keys and doubles up to a full page; every later page is allocated
	// full, so a key outside a small page 0 is written once and never
	// moves. room is how many keys the pages hold; Reset keeps them.
	pages [][]byte
	room  int
	n     int
	// InsertBatch's scratch, one element per key of the largest batch
	// seen: each key's hash, and the slot value found at its home slot.
	hashes, homes []uint64
	// Plain-field tallies for the flight recorder, maintained off the
	// per-probe path (a register increment inside the probe loop, one
	// compare per insert) and read only at phase boundaries via Stats.
	probeHWM int64 // longest linear-probe walk any creating Insert took
	grows    int64 // first-segment doublings plus segment splits
	arenaHWM int64 // peak arena bytes, surviving Reset
}

// segment is a directory entry: a segment's slots, linear-probed with
// wrap-around, and where a hash's home slot sits in them.
type segment struct {
	slots []uint64
	// shift puts the home slot's bits at the bottom: home is
	// hash>>shift & (len(slots)-1), the hash bits after the segment's
	// depth bits.
	shift uint8
	depth uint8 // local depth: the leading hash bits its keys share
	// n counts the segment's entries, kept in the first directory entry
	// of its range only.
	n int32
}

// Stats is a point-in-time view of a table's probe and growth
// behavior, for phase-boundary publishing — never read it per row.
type Stats struct {
	// Entries is the current entry count.
	Entries int64
	// Slots is the probe index's size, across its segments.
	Slots int64
	// ProbeHWM is the longest linear-probe walk any insert performed
	// (0 = every insert landed on its home slot).
	ProbeHWM int64
	// Grows counts the probe index's growths over the table's life:
	// the first segment's doublings plus segment splits.
	Grows int64
	// ArenaBytesHWM is the peak bytes of keys the arena held (entries
	// times key width), including populations retired by Reset.
	ArenaBytesHWM int64
}

// Stats snapshots the table's tallies.
func (t *Table) Stats() Stats {
	arena := t.arenaHWM
	if cur := int64(t.n * t.keyLen); cur > arena {
		arena = cur
	}
	return Stats{
		Entries:       int64(t.n),
		Slots:         int64(t.slots),
		ProbeHWM:      t.probeHWM,
		Grows:         t.grows,
		ArenaBytesHWM: arena,
	}
}

// PageKeys is how many keys a full page of the key arena holds.
const PageKeys = 1 << pageShift

const (
	pageShift = 12
	firstKeys = 16 // page 0's first size, so a small table stays small
	// A full segment is 4,096 slots (32 KB); the first one starts at
	// minSlots and doubles up to it.
	segShift = 12
	segSlots = 1 << segShift
	minSlots = 16
	// The directory and home-slot bits come from the 32-bit tag.
	maxDepth = 32 - segShift
	idxMask  = 1<<32 - 1
	// Odd 64-bit constants of the multiply-mix (the golden ratio and
	// wyhash's first secret); any pair of well-mixed odd words works.
	hashSeed = 0x9e3779b97f4a7c15
	hashMul  = 0xa0761d6478bd642f
)

// New returns a table for keys of keyLen bytes (zero is allowed: the
// all-ALL region set has a single, empty key).
func New(keyLen int) *Table {
	return &Table{
		keyLen: keyLen,
		dir:    []segment{{slots: make([]uint64, minSlots), shift: uint8(64 - bits.TrailingZeros(minSlots))}},
		dshift: 64,
		slots:  minSlots,
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// KeyLen returns the fixed key width in bytes.
func (t *Table) KeyLen() int { return t.keyLen }

// mix folds one key word into the hash: a full 64x64 multiply whose
// halves are xored, so every input bit reaches the high bits the table
// indexes by. Region keys are dense small big-endian codes, which
// differ in a few low-order bytes only; words are loaded big-endian so
// those bytes are the multiplicand's low bits and spread upward.
func mix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, hashMul)
	return hi ^ lo
}

func hash(k []byte) uint64 {
	h := uint64(hashSeed)
	for ; len(k) >= 8; k = k[8:] {
		h = mix(h, binary.BigEndian.Uint64(k))
	}
	if len(k) > 0 {
		var w uint64
		for i, b := range k {
			w |= uint64(b) << (8 * uint(i))
		}
		h = mix(h, w)
	}
	return h
}

// keyEq compares two equal-length keys a word at a time.
func keyEq(a, b []byte) bool {
	for len(a) >= 8 {
		if binary.LittleEndian.Uint64(a) != binary.LittleEndian.Uint64(b) {
			return false
		}
		a, b = a[8:], b[8:]
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KeyAt returns entry i's key bytes (a view into the arena; do not
// mutate or retain across Reset).
func (t *Table) KeyAt(i int32) []byte {
	off := int(i&(PageKeys-1)) * t.keyLen
	return t.pages[i>>pageShift][off : off+t.keyLen]
}

// Pages returns how many pages of the key arena hold entries.
func (t *Table) Pages() int { return (t.n + PageKeys - 1) / PageKeys }

// Page returns page p's entries — ids p*PageKeys onward, n of them —
// and their keys back to back: a view, as KeyAt's.
func (t *Table) Page(p int) (n int, keys []byte) {
	n = min(t.n-p*PageKeys, PageKeys)
	return n, t.pages[p][:n*t.keyLen]
}

// find walks the probe sequence of k, whose hash is h, in the segment
// at directory entry d. It returns k's entry index, or -1 with the empty
// slot that ended the walk and the walk length.
func (t *Table) find(k []byte, h uint64) (e int32, d int, slot uint64, walk int64) {
	tag := h &^ idxMask
	d = int(h >> t.dshift)
	seg := &t.dir[d]
	mask := uint64(len(seg.slots) - 1)
	slot = h >> (seg.shift & 63) & mask
	for {
		s := seg.slots[slot]
		if s == 0 {
			return -1, d, slot, walk
		}
		if s&^idxMask == tag {
			e = int32(s&idxMask) - 1
			if keyEq(t.KeyAt(e), k) {
				return e, d, slot, walk
			}
		}
		slot = (slot + 1) & mask
		walk++
	}
}

func (t *Table) checkWidth(k []byte) {
	if len(k) != t.keyLen {
		panic("cellmap: key width does not match the table's")
	}
	t.checkLive()
}

func (t *Table) checkLive() {
	if t.dir == nil {
		panic("cellmap: the table is frozen")
	}
}

// Lookup returns the entry index for k, or -1.
func (t *Table) Lookup(k []byte) int32 {
	t.checkWidth(k)
	e, _, _, _ := t.find(k, hash(k))
	return e
}

// Insert returns the entry index for k, creating it if absent. The key
// bytes are copied into the arena on creation. String-keyed callers
// pass []byte(key): Insert neither retains nor writes k, so the
// conversion does not copy.
func (t *Table) Insert(k []byte) (idx int32, created bool) {
	t.checkWidth(k)
	return t.insert(k, hash(k))
}

// insert is Insert for a key whose hash is already known: the one
// probe-and-create body behind Insert and InsertBatch.
func (t *Table) insert(k []byte, h uint64) (idx int32, created bool) {
	e, d, slot, walk := t.find(k, h)
	if e >= 0 {
		return e, false
	}
	if walk > t.probeHWM {
		t.probeHWM = walk
	}
	e = t.Append(k)
	seg := &t.dir[d]
	seg.slots[slot] = h&^idxMask | uint64(e+1)
	// Grow the segment at half load. Under a well-mixed hash the longest
	// walk grows with log(n)/(load - 1 - ln load): about 35 slots at a
	// million entries here, against 170 at 3/4 and 700 at 7/8.
	first := &t.dir[d&^(1<<(t.depth-uint(seg.depth))-1)]
	if first.n++; int(first.n)*2 > len(seg.slots) {
		if len(seg.slots) < segSlots {
			t.double()
		} else {
			t.split(h)
		}
	}
	return e, true
}

// InsertBatch is Insert over len(out) keys packed back to back in keys,
// leaving each key's entry index in out: the same ids, entries and
// tallies as Insert on each key in order (Len before and after tells how
// many were created). It is faster because a key's loads no longer wait
// on the previous key's — DESIGN.md §hot-path has the four stages.
func (t *Table) InsertBatch(keys []byte, out []int32) {
	t.checkLive()
	kl := t.keyLen
	if len(keys) != len(out)*kl {
		panic("cellmap: key bytes do not match the batch's length")
	}
	if cap(t.hashes) < len(out) {
		t.hashes, t.homes = make([]uint64, len(out)), make([]uint64, len(out))
	}
	hashes, homes := t.hashes[:len(out)], t.homes[:len(out)]
	// Stage 1: every key's hash.
	for i := range hashes {
		hashes[i] = hash(keys[i*kl : i*kl+kl])
	}
	if t.n > 0 && kl > 0 && kl%8 == 0 {
		// Stage 2: every home slot — independent loads, so their cache
		// misses overlap.
		for i, h := range hashes {
			seg := &t.dir[h>>t.dshift]
			homes[i] = seg.slots[h>>(seg.shift&63)&uint64(len(seg.slots)-1)]
		}
		// Stage 3: where the home slot's tag matches, compare the key's
		// first word with its entry's. Arithmetic, not branches: hit and
		// miss are near even odds, and a mispredicted branch would flush
		// the arena loads this stage exists to overlap.
		for i, s := range homes {
			tagDiff := (s ^ hashes[i]) >> 32
			e := s & idxMask & -((tagDiff - 1) >> 63) // entry index + 1; 0 on a tag miss or an empty slot
			some := (e | -e) >> 63                    // e != 0
			e -= some                                 // the candidate entry, or entry 0 as a harmless load
			x := binary.LittleEndian.Uint64(t.KeyAt(int32(e))) ^ binary.LittleEndian.Uint64(keys[i*kl:])
			hit := some &^ ((x | -x) >> 63)
			out[i] = int32(e*hit) + int32(hit) - 1 // e on a hit, else -1
		}
	} else {
		for i := range out {
			out[i] = -1
		}
	}
	// Stage 4, in key order: a stage 3 hit whose remaining words match
	// keeps its id (an entry index, which no later growth moves);
	// every other key takes the ordinary probe with its hash in hand.
	for i, e := range out {
		k := keys[i*kl : i*kl+kl]
		if e < 0 || !keyEq(t.KeyAt(e)[8:], k[8:]) {
			out[i], _ = t.insert(k, hashes[i])
		}
	}
}

// Append adds k as a new entry without consulting the probe index, for
// callers that know k was never inserted — the engines' append-only
// nodes, whose cell keys arrive in contiguous runs. The probe index is
// not updated: after an Append, Lookup/Insert answers are undefined
// until the next Reset. Mixing Append with probing calls on one
// population is a caller bug.
func (t *Table) Append(k []byte) int32 {
	t.checkLive()
	if t.n == t.room {
		t.addPage()
	}
	e := int32(t.n)
	copy(t.KeyAt(e), k)
	t.n++
	return e
}

// addPage makes room for the next key: page 0 doubles until it is a
// full page, and after it whole pages follow.
func (t *Table) addPage() {
	switch {
	case t.room == 0:
		t.pages, t.room = append(t.pages, make([]byte, firstKeys*t.keyLen)), firstKeys
	case t.room < PageKeys:
		page := make([]byte, 2*t.room*t.keyLen)
		copy(page, t.pages[0])
		t.pages[0], t.room = page, 2*t.room
	default:
		t.pages, t.room = append(t.pages, make([]byte, PageKeys*t.keyLen)), t.room+PageKeys
	}
}

// double doubles the first segment while it is alone in the directory
// and smaller than a full one. Home slots come from the slot values' own
// tag bits, so the arena is not read and no key is rehashed or moved;
// old slots are visited in index order, which is also ascending home
// order in the new segment, so the writes run forward through it.
func (t *Table) double() {
	t.grows++
	old := t.dir[0]
	slots := make([]uint64, 2*len(old.slots))
	for _, s := range old.slots {
		if s != 0 {
			place(slots, s, old.shift-1)
		}
	}
	t.dir[0] = segment{slots: slots, shift: old.shift - 1, n: old.n}
	t.slots = len(slots)
}

// split splits the full segment that serves hash h in two by the next
// hash bit, doubling the directory first when the segment already uses
// every bit it has. That bit is the top bit of an entry's home slot, and
// the home gains the next hash bit at the bottom: an entry whose bit is
// 1 moves down from home h to 2h-4096 or one past it, so those stay and
// are re-placed in the old segment in one forward pass, while the
// others move up, to one new segment. A split allocates one segment and
// discards none. A half still past half load splits again.
func (t *Table) split(h uint64) {
	old := t.dir[h>>t.dshift]
	depth := uint(old.depth)
	if depth == t.depth {
		if depth == maxDepth {
			panic("cellmap: more than half a segment of keys share their hash's high 32 bits")
		}
		dir := make([]segment, 2*len(t.dir))
		for i, seg := range t.dir {
			dir[2*i], dir[2*i+1] = seg, seg
		}
		t.dir, t.depth, t.dshift = dir, t.depth+1, t.dshift-1
	}
	t.grows++
	t.slots += segSlots
	bit, shift := 63-depth, old.shift-1
	lo, hi := make([]uint64, segSlots), old.slots
	// Lift out first the front of a cluster that wraps past the last
	// slot, whose homes lie behind them: every other entry then sits at
	// or past its home, and an entry that stays is placed at or before
	// the slot it is taken from, among entries already placed.
	var buf [64]uint64 // the usual wrapped front, without an allocation
	wrapped := buf[:0]
	if hi[segSlots-1] != 0 {
		for i := uint64(0); hi[i] != 0; i++ {
			if s := hi[i]; s>>(old.shift&63)&(segSlots-1) > i {
				wrapped, hi[i] = append(wrapped, s), 0
			}
		}
	}
	var nlo, nhi int32
	move := func(s uint64) {
		if s>>bit&1 == 0 {
			place(lo, s, shift)
			nlo++
		} else {
			place(hi, s, shift)
			nhi++
		}
	}
	for i, s := range hi {
		if s != 0 {
			hi[i] = 0
			move(s)
		}
	}
	for _, s := range wrapped {
		move(s)
	}
	span := 1 << (t.depth - depth)
	first := int(h>>t.dshift) &^ (span - 1)
	for i := first; i < first+span; i++ {
		if i < first+span/2 {
			t.dir[i] = segment{slots: lo, shift: shift, depth: uint8(depth + 1)}
		} else {
			t.dir[i] = segment{slots: hi, shift: shift, depth: uint8(depth + 1)}
		}
	}
	t.dir[first].n, t.dir[first+span/2].n = nlo, nhi
	if 2*nlo > segSlots {
		t.split(h &^ (1 << bit))
	} else if 2*nhi > segSlots {
		t.split(h | 1<<bit)
	}
}

// place puts slot value s at the first empty slot from its home.
func place(slots []uint64, s uint64, shift uint8) {
	mask := uint64(len(slots) - 1)
	i := s >> (shift & 63) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = s
}

// Reset empties the table, keeping the segments, the directory and the
// arena's pages. The caller's parallel value slice should be truncated
// alongside. Tallies (probe HWM, grow count, arena HWM) survive: they
// describe the table's whole life across watermark-flush rebuilds.
func (t *Table) Reset() {
	t.checkLive()
	if cur := int64(t.n * t.keyLen); cur > t.arenaHWM {
		t.arenaHWM = cur
	}
	for i := 0; i < len(t.dir); i += 1 << (t.depth - uint(t.dir[i].depth)) {
		clear(t.dir[i].slots)
		t.dir[i].n = 0
	}
	t.n = 0
}

// Freeze ends the table's writes: it drops the probe index and returns
// the arena's pages as strings, page p holding the keys of ids
// p*PageKeys onward back to back, so a caller cuts each key out of them
// without a copy. The strings alias the pages, which is sound because a
// frozen page is never written again: Insert, InsertBatch, Append and
// Reset panic after Freeze, and so do Lookup, KeyAt and Page. Len,
// KeyLen and Stats still answer.
func (t *Table) Freeze() []string {
	t.checkLive()
	keys := make([]string, t.Pages())
	for p := range keys {
		_, page := t.Page(p)
		keys[p] = unsafe.String(unsafe.SliceData(page), len(page))
	}
	t.dir, t.pages, t.hashes, t.homes = nil, nil, nil, nil
	return keys
}
