package cellmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func TestTableBasics(t *testing.T) {
	tab := New(8)
	k := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, v)
		return b
	}
	if got := tab.Lookup(k(1)); got != -1 {
		t.Fatalf("Lookup on empty = %d, want -1", got)
	}
	i0, created := tab.Insert(k(1))
	if !created || i0 != 0 {
		t.Fatalf("first Insert = (%d,%v), want (0,true)", i0, created)
	}
	i1, created := tab.Insert(k(2))
	if !created || i1 != 1 {
		t.Fatalf("second Insert = (%d,%v), want (1,true)", i1, created)
	}
	again, created := tab.Insert(k(1))
	if created || again != 0 {
		t.Fatalf("repeat Insert = (%d,%v), want (0,false)", again, created)
	}
	if got := tab.Lookup(k(2)); got != 1 {
		t.Fatalf("Lookup = %d, want 1", got)
	}
	if string(tab.KeyAt(0)) != string(k(1)) || string(tab.KeyAt(1)) != string(k(2)) {
		t.Fatal("KeyAt does not round-trip inserted keys in insertion order")
	}
	tab.Reset()
	if tab.Len() != 0 || tab.Lookup(k(1)) != -1 {
		t.Fatal("Reset did not empty the table")
	}
	if i, created := tab.Insert(k(3)); !created || i != 0 {
		t.Fatalf("Insert after Reset = (%d,%v), want (0,true)", i, created)
	}
}

func TestTableZeroWidthKey(t *testing.T) {
	tab := New(0)
	i, created := tab.Insert(nil)
	if !created || i != 0 {
		t.Fatalf("zero-width Insert = (%d,%v), want (0,true)", i, created)
	}
	if i, created := tab.Insert([]byte{}); created || i != 0 {
		t.Fatalf("repeat zero-width Insert = (%d,%v), want (0,false)", i, created)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

// differential drives a table of keyLen-byte keys from an op stream and
// checks every answer against a Go map. A population (the entries
// between two Resets) is either probed (Insert/InsertBatch/Lookup) or
// appended (Append of never-seen keys), never both — the engines'
// contract — and the stream switches between the two kinds across
// Resets. Some Resets instead end both tables, by Freeze or Release,
// and go on in new ones, which draw the segments the old ones gave
// back. Keys come from a small domain so repeats are common. A twin
// table takes the same stream one key at a time — every batch as
// Inserts in order — and must stay indistinguishable: ids, Len, keys
// and Stats after every batch.
func differential(t testing.TB, keyLen int, ops []byte) {
	tab, twin := New(keyLen), New(keyLen)
	ref := map[string]int32{}
	var order []string
	appended := false // the current population was built by Append
	fresh := uint64(0)
	key := make([]byte, keyLen)
	setKey := func(hi, lo uint64) {
		for i := range key {
			key[i] = 0
		}
		if keyLen >= 8 {
			binary.BigEndian.PutUint64(key[keyLen-8:], lo^(1<<63))
		} else {
			for i := range key {
				key[i] = byte(lo >> (8 * uint(i)))
			}
		}
		if keyLen >= 16 {
			binary.BigEndian.PutUint64(key, hi^(1<<63))
		}
	}
	// insert checks one probed key's answer against the map.
	insert := func(idx int32, created bool) {
		t.Helper()
		want, ok := ref[string(key)]
		if ok != !created || (ok && idx != want) || (!ok && int(idx) != len(order)) {
			t.Fatalf("Insert(%x) = (%d,%v); map has (%d,%v), %d entries", key, idx, created, want, ok, len(order))
		}
		if created {
			ref[string(key)] = idx
			order = append(order, string(key))
		}
	}
	var (
		batch []byte
		ids   []int32
	)
	verify := func() {
		t.Helper()
		if tab.Len() != len(order) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(order))
		}
		arena := 0
		for p := 0; p < tab.Pages(); p++ {
			_, keys := tab.Page(p)
			arena += len(keys)
		}
		if arena != len(order)*keyLen {
			t.Fatalf("arena holds %d bytes, want %d", arena, len(order)*keyLen)
		}
		for i, k := range order {
			if string(tab.KeyAt(int32(i))) != k {
				t.Fatalf("KeyAt(%d) = %x, want %x", i, tab.KeyAt(int32(i)), k)
			}
			if !appended {
				if got := tab.Lookup([]byte(k)); got != int32(i) {
					t.Fatalf("Lookup(%x) = %d, want %d", k, got, i)
				}
			}
		}
		if st := tab.Stats(); st.Entries != int64(len(order)) || st.ArenaBytesHWM < int64(len(order)*keyLen) {
			t.Fatalf("Stats = %+v with %d entries of %d bytes", st, len(order), keyLen)
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		switch {
		case op < 8: // Reset, and let the next population be of either kind
			verify()
			switch {
			case op < 4:
				tab.Reset()
				twin.Reset()
			case op&1 == 0:
				tab.Freeze()
				twin.Freeze()
				tab, twin = New(keyLen), New(keyLen)
			default:
				tab.Release()
				twin.Release()
				tab, twin = New(keyLen), New(keyLen)
			}
			clear(ref)
			order, appended = order[:0], false
		case op < 64 && len(order) == 0 || appended:
			// Append a key no population has held: a counter from a
			// range the probed domain never reaches.
			if keyLen == 0 && len(order) > 0 {
				continue // the empty key exists once
			}
			fresh++
			setKey(1<<40+fresh, 1<<40+fresh)
			if idx := tab.Append(key); int(idx) != len(order) {
				t.Fatalf("Append = %d, want %d", idx, len(order))
			}
			twin.Append(key)
			order, appended = append(order, string(key)), true
		case op >= 224:
			// InsertBatch of a+1 keys: odd ops a run of distinct keys, one
			// run per b (all new the first time, all hits when the op
			// repeats, and enough of them to fill pages), even ops
			// a pseudo-random draw — from 32 keys when op&2 is set, so the
			// batch repeats keys it has itself just created.
			n := int(a) + 1
			batch, ids = batch[:0], ids[:0]
			x := uint32(b)
			for j := 0; j < n; j++ {
				if op&1 == 1 {
					setKey(uint64(b), uint64(b)<<8|uint64(j))
				} else if x = x*1103515245 + 12345; op&2 == 2 {
					setKey(0, uint64(x>>16&31))
				} else {
					setKey(uint64(x>>24&7), uint64(x>>16&255))
				}
				batch = append(batch, key...)
				idx, created := twin.Insert(key)
				insert(idx, created)
				ids = append(ids, idx)
			}
			got, from := make([]int32, n), tab.Len()/PageKeys
			tab.InsertBatch(batch, got)
			for j, idx := range got {
				if idx != ids[j] {
					t.Fatalf("InsertBatch key %d of %d = %d, Insert gave %d", j, n, idx, ids[j])
				}
			}
			if tab.Len() != twin.Len() || !samePages(tab, twin, from) || tab.Stats() != twin.Stats() {
				t.Fatalf("after a batch of %d: %d entries, Stats %+v; one key at a time %d entries, Stats %+v",
					n, tab.Len(), tab.Stats(), twin.Len(), twin.Stats())
			}
		default:
			setKey(uint64(a&7), uint64(b))
			twin.Insert(key)
			insert(tab.Insert(key))
			setKey(uint64(b&7), uint64(a)+1<<20) // outside the inserted domain
			if got := tab.Lookup(key); keyLen > 0 && got != -1 {
				t.Fatalf("Lookup of an absent key = %d, want -1", got)
			}
		}
	}
	verify()
}

// samePages reports whether two tables' arenas hold the same keys from
// page from on.
func samePages(a, b *Table, from int) bool {
	if a.Pages() != b.Pages() {
		return false
	}
	for p := from; p < a.Pages(); p++ {
		_, ka := a.Page(p)
		if _, kb := b.Page(p); !bytes.Equal(ka, kb) {
			return false
		}
	}
	return true
}

// keyWidths are the widths the op streams run at: none, the codec's 8,
// 16 and 24, and 5 for the tail that is not a whole word.
var keyWidths = []int{0, 8, 16, 24, 5}

// TestDifferentialAgainstMap is the property test: long random op
// streams at every key width, through growth, Resets and both kinds of
// population.
func TestDifferentialAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range keyWidths {
		for trial := 0; trial < 4; trial++ {
			ops := make([]byte, 3*20000)
			rng.Read(ops)
			for i := 0; i < len(ops); i += 3 {
				if ops[i] < 8 && rng.Intn(200) != 0 {
					ops[i] += 8 // rare Resets, so populations grow the table
				}
			}
			differential(t, w, ops)
		}
	}
}

// batchEdges are op streams around InsertBatch's edges, by name; they
// run at every width and seed FuzzInsert.
var batchEdges = map[string][]byte{
	// 256 new keys into an empty table (six doublings inside the batch),
	// then the same batch again: every key a hit.
	"all new, then all hits": {225, 255, 3, 225, 255, 3},
	// Eight single inserts fill the 16-slot table to its limit; a batch
	// of 9 more keys crosses one doubling, one of 25 crosses two.
	"straddles one doubling":  {200, 0, 0, 200, 0, 1, 200, 0, 2, 200, 0, 3, 200, 0, 4, 200, 0, 5, 200, 0, 6, 200, 0, 7, 225, 8, 1},
	"straddles two doublings": {200, 0, 0, 200, 0, 1, 200, 0, 2, 200, 0, 3, 200, 0, 4, 200, 0, 5, 200, 0, 6, 200, 0, 7, 225, 24, 1},
	// A batch drawn from 32 keys creates a key and meets it again.
	"duplicates inside the batch": {226, 200, 9, 226, 200, 10},
	// A grown table emptied by Reset keeps its slots: the next batch
	// takes the staged path's empty-table exit, the one after the stages.
	"right after Reset":         {225, 99, 0, 0, 0, 0, 224, 99, 5, 224, 99, 5, 0, 0, 0, 225, 0, 7},
	"mixed with single inserts": {200, 1, 2, 224, 50, 1, 200, 3, 4, 228, 50, 1, 200, 1, 2, 230, 255, 77},
	// Seventeen runs of 256 new keys fill the arena's first page and
	// spill into the second, then the same runs again are all hits.
	"crosses a page": twice(runs(17)),
	// 2,047 new keys take the first segment to a full one a key short
	// of half load; the second key of the next batch splits it, and the
	// same keys again are all hits in the two halves.
	"straddles a split": twice(append(runs(7), 225, 254, 7, 225, 8, 8)),
	// A table split into full segments is frozen, or released, and new
	// tables take the same keys: every one is new to them.
	"rebuilt after Freeze":  append(append(runs(12), 4, 0, 0), runs(12)...),
	"rebuilt after Release": append(append(runs(12), 5, 0, 0), runs(12)...),
}

// runs is n InsertBatch ops of 256 new keys each.
func runs(n byte) []byte {
	var ops []byte
	for b := byte(0); b < n; b++ {
		ops = append(ops, 225, 255, b)
	}
	return ops
}

func twice(ops []byte) []byte { return append(ops, ops...) }

func TestInsertBatchEdges(t *testing.T) {
	for name, ops := range batchEdges {
		for _, w := range keyWidths {
			t.Run(fmt.Sprintf("%s/width=%d", name, w), func(t *testing.T) { differential(t, w, ops) })
		}
	}
}

// TestInsertBatchTagCollision is the case the op streams' small domain
// never draws: two distinct keys whose hashes share their high 32 bits,
// so the second finds the first's tag in its home slot. At width 8 the
// first-word compare must tell them apart; at 16 and 24 they share the
// first word too and only the tail compare can.
func TestInsertBatchTagCollision(t *testing.T) {
	for _, w := range []int{8, 16, 24} {
		key := func(j uint64) []byte {
			k := make([]byte, w)
			binary.BigEndian.PutUint64(k[w-8:], j^(1<<63))
			return k
		}
		// Dense codes give the tags of a Weyl sequence, which never
		// repeat; random words collide at the birthday bound, ~80k draws.
		rng := rand.New(rand.NewSource(int64(w)))
		seen := map[uint32]uint64{}
		var a, b []byte
		for tries := 0; b == nil; tries++ {
			if tries == 1<<22 {
				t.Fatalf("width %d: no two of %d random keys share a tag", w, tries)
			}
			j := rng.Uint64()
			tag := uint32(hash(key(j)) >> 32)
			if first, ok := seen[tag]; ok && first != j {
				a, b = key(first), key(j)
			}
			seen[tag] = j
		}
		tab := New(w)
		tab.Insert(a)
		got := make([]int32, 3)
		tab.InsertBatch(append(append(append([]byte(nil), b...), a...), b...), got)
		if got[0] != 1 || got[1] != 0 || got[2] != 1 || tab.Len() != 2 {
			t.Errorf("width %d: keys %x and %x share a tag; InsertBatch(b, a, b) after Insert(a) = %v with %d entries, want [1 0 1] with 2", w, a, b, got, tab.Len())
		}
	}
}

func FuzzInsert(f *testing.F) {
	for _, ops := range batchEdges {
		for w := range keyWidths {
			f.Add(uint8(w), ops)
		}
	}
	f.Add(uint8(1), []byte{200, 1, 2, 200, 1, 2, 0, 0, 0, 10, 5, 5, 10, 6, 6, 0, 0, 0, 200, 1, 2})
	f.Add(uint8(0), []byte{200, 0, 0, 200, 0, 0, 0, 0, 0, 10, 0, 0})
	f.Add(uint8(3), []byte{10, 1, 1, 10, 2, 2, 0, 0, 0, 200, 7, 255, 200, 7, 255})
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		differential(t, keyWidths[int(width)%len(keyWidths)], ops)
	})
}

// TestDenseCodesProbeBound is the adversarial distribution: a million
// keys of dense small big-endian codes, the shape model.AppendKeyCode
// emits, which differ in a handful of low-order bytes. Every key must
// be found again after the table's five hundred splits, the longest
// probe walk must stay within 64 slots whatever the key width, and the
// probe index must be allocated about once: the bytes allocated while
// inserting, less what appending the same keys allocates (the arena)
// and the directory's doublings, are at most the final slots plus one
// segment, which is what the first segment's doublings discard. An
// index that doubled whole allocated about twice its final slots.
func TestDenseCodesProbeBound(t *testing.T) {
	const n = 1_000_000
	for _, shape := range [][]uint64{{n}, {1000, 1000}, {100, 100, 100}} {
		key := make([]byte, 8*len(shape))
		fill := func(add func([]byte)) uint64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := uint64(0); i < n; i++ {
				rest := i
				for j, dim := range shape {
					binary.BigEndian.PutUint64(key[8*j:], rest%dim^(1<<63))
					rest /= dim
				}
				add(key)
			}
			runtime.ReadMemStats(&m1)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		appended := New(len(key))
		arena := fill(func(k []byte) { appended.Append(k) })
		tab := New(len(key))
		var i int32
		total := fill(func(k []byte) {
			if idx, created := tab.Insert(k); !created || idx != i {
				t.Fatalf("shape %v: Insert #%d = (%d,%v)", shape, i, idx, created)
			}
			i++
		})
		i = 0
		fill(func(k []byte) {
			if got := tab.Lookup(k); got != i {
				t.Fatalf("shape %v: Lookup of key #%d = %d", shape, i, got)
			}
			i++
		})
		st := tab.Stats()
		if st.ProbeHWM > 64 {
			t.Errorf("shape %v: longest probe walk %d slots, want <= 64", shape, st.ProbeHWM)
		}
		// The directory's doublings add up to twice its final size, and
		// each rounds up to a size class; three times covers both.
		dir := 3 * uint64(len(tab.dir)) * uint64(unsafe.Sizeof(segment{}))
		slotBytes := total - arena - dir
		t.Logf("shape %v: %d slots, at most %d slot bytes allocated, longest walk %d, %d grows", shape, st.Slots, slotBytes, st.ProbeHWM, st.Grows)
		if limit := uint64(st.Slots+segSlots) * 8; slotBytes > limit {
			t.Errorf("shape %v: %d slot bytes allocated for %d final slots, want <= %d", shape, slotBytes, st.Slots, limit)
		}
	}
}

// BenchmarkInsert prices one Insert on 16-byte dense-code keys: hit
// (the key exists), miss (a new key, table already at capacity) and
// grow (new keys into a new table, doublings included).
func BenchmarkInsert(b *testing.B) {
	const n = 1 << 17
	keys := make([]byte, 0, 16*n)
	for i := uint64(0); i < n; i++ {
		keys = binary.BigEndian.AppendUint64(keys, i%512^(1<<63))
		keys = binary.BigEndian.AppendUint64(keys, i/512^(1<<63))
	}
	fill := func(tab *Table) {
		for i := 0; i < n; i++ {
			tab.Insert(keys[16*i : 16*i+16])
		}
	}
	for _, mode := range []string{"hit", "miss", "grow"} {
		b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
			tab := New(16)
			fill(tab)
			b.ResetTimer()
			for done := 0; done < b.N; done += n {
				switch mode {
				case "miss":
					tab.Reset()
				case "grow":
					tab = New(16)
				}
				for i := 0; i < n && done+i < b.N; i++ {
					tab.Insert(keys[16*i : 16*i+16])
				}
			}
		})
	}
}

// BenchmarkInsertBatch prices the probe where it misses the cache: a
// million 16-byte keys (16 MB of slots, 16 MB of arena) hit in random
// order, one Insert at a time against InsertBatch over 512-key batches.
// The gap between the two is the memory-level parallelism of the staged
// probe.
func BenchmarkInsertBatch(b *testing.B) {
	const n, batch = 1 << 20, 512
	rng := rand.New(rand.NewSource(7))
	keys := make([]byte, 0, 16*n)
	for _, i := range rng.Perm(n) {
		keys = binary.BigEndian.AppendUint64(keys, uint64(i%1024)^(1<<63))
		keys = binary.BigEndian.AppendUint64(keys, uint64(i/1024)^(1<<63))
	}
	tab := New(16)
	for i := 0; i < n; i++ {
		tab.Insert(keys[16*i : 16*i+16])
	}
	// Probe in another random order than the insertion's.
	probes := make([]byte, 0, 16*n)
	for _, i := range rng.Perm(n) {
		probes = append(probes, keys[16*i:16*i+16]...)
	}
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % n
			tab.Insert(probes[16*j : 16*j+16])
		}
	})
	b.Run("batch", func(b *testing.B) {
		ids := make([]int32, batch)
		for done := 0; done < b.N; done += batch {
			j := done % n
			tab.InsertBatch(probes[16*j:16*(j+batch)], ids)
		}
	})
}

// pagedEntries crosses three page boundaries of the key arena and ends
// 17 keys into the fourth page.
const pagedEntries = 3*PageKeys + 17

// pagedKey writes dense code x as a key of len(k) bytes: small
// big-endian words, the last one carrying what the others do not.
func pagedKey(k []byte, x uint64) []byte {
	for j := 0; j+8 <= len(k); j += 8 {
		w := x
		if j+8 < len(k) {
			w, x = x%1000, x/1000
		}
		binary.BigEndian.PutUint64(k[j:], w^(1<<63))
	}
	return k
}

// TestPagesAgainstMap grows tables past three pages of the key arena at
// every whole-word width, by Insert, by InsertBatch over batches that
// straddle the page boundaries, and by Append, with a Reset between the
// populations, and checks every id, key and page against a map. A key
// view taken before the growth still holds its bytes after it, and the
// Stats after each population are pinned: the arena's layout moves no
// probe, growth or byte count. Eight doublings take the first segment to
// 4,096 slots and seven splits to eight segments; Reset keeps them.
func TestPagesAgainstMap(t *testing.T) {
	full := func(w int, probeHWM int64) Stats {
		return Stats{Entries: pagedEntries, Slots: 32768, ProbeHWM: probeHWM, Grows: 15, ArenaBytesHWM: int64(w) * pagedEntries}
	}
	want := map[int][3]Stats{
		// The empty key exists once, except appended.
		0:  {{Entries: 1, Slots: 16}, {Entries: 1, Slots: 16}, {Entries: pagedEntries, Slots: 16}},
		8:  {full(8, 4), full(8, 4), full(8, 4)},
		16: {full(16, 19), full(16, 19), full(16, 19)},
		24: {full(24, 20), full(24, 20), full(24, 20)},
	}
	for _, w := range []int{0, 8, 16, 24} {
		tab := New(w)
		for pop, mode := range []string{"insert", "batch", "append"} {
			// The key stream: a new code, then every third key a repeat
			// of an earlier one; each population draws other codes.
			var stream []uint64
			for fresh := uint64(0); fresh < pagedEntries; {
				if len(stream)%3 == 2 && mode != "append" {
					stream = append(stream, stream[len(stream)*7%len(stream)])
					continue
				}
				stream = append(stream, uint64(pop)<<32+fresh)
				fresh++
			}
			ref := map[string]int32{}
			var order []string
			var early []byte
			batch, ids := []byte(nil), make([]int32, 1000)
			for at := 0; at < len(stream); at += len(ids) {
				batch = batch[:0]
				var wantIDs []int32
				for _, x := range stream[at:min(at+len(ids), len(stream))] {
					k := pagedKey(make([]byte, w), x)
					batch = append(batch, k...)
					id, ok := ref[string(k)]
					if !ok || mode == "append" { // appended keys are all new, even the empty one
						id = int32(len(order))
						ref[string(k)] = id
						order = append(order, string(k))
					}
					wantIDs = append(wantIDs, id)
				}
				got := ids[:len(wantIDs)]
				for j := range got {
					k := batch[j*w : j*w+w]
					switch mode {
					case "insert":
						got[j], _ = tab.Insert(k)
					case "append":
						got[j] = tab.Append(k)
					}
				}
				if mode == "batch" {
					tab.InsertBatch(batch, got)
				}
				for j, id := range got {
					if id != wantIDs[j] {
						t.Fatalf("width %d, %s: key %d got id %d, want %d", w, mode, at+j, id, wantIDs[j])
					}
				}
				if early == nil && len(order) > 5 {
					early = tab.KeyAt(5)
				}
			}
			if len(order) > 5 && string(early) != order[5] {
				t.Fatalf("width %d, %s: a view of key 5 reads %x after growth, want %x", w, mode, early, order[5])
			}
			if tab.Len() != len(order) || tab.Pages() != (len(order)+PageKeys-1)/PageKeys {
				t.Fatalf("width %d, %s: Len %d in %d pages with %d entries", w, mode, tab.Len(), tab.Pages(), len(order))
			}
			var all string
			for p := 0; p < tab.Pages(); p++ {
				n, keys := tab.Page(p)
				if wantN := min(PageKeys, len(order)-p*PageKeys); n != wantN || len(keys) != n*w {
					t.Fatalf("width %d, %s: page %d holds %d entries in %d bytes, want %d", w, mode, p, n, len(keys), wantN)
				}
				all += string(keys)
			}
			if all != strings.Join(order, "") {
				t.Fatalf("width %d, %s: the pages do not hold the keys in id order", w, mode)
			}
			for i, k := range order {
				if string(tab.KeyAt(int32(i))) != k {
					t.Fatalf("width %d, %s: KeyAt(%d) = %x, want %x", w, mode, i, tab.KeyAt(int32(i)), k)
				}
				if mode != "append" {
					if got := tab.Lookup([]byte(k)); got != int32(i) {
						t.Fatalf("width %d, %s: Lookup(%x) = %d, want %d", w, mode, k, got, i)
					}
				}
			}
			if got := tab.Stats(); got != want[w][pop] {
				t.Errorf("width %d, %s: Stats = %+v, want %+v", w, mode, got, want[w][pop])
			}
			tab.Reset()
		}
	}
}

// TestFreeze: Freeze hands back the keys in id order, a string per page,
// across a small page 0, a page-0/full-page boundary and the empty key;
// Len and Stats read as before it; every write after it panics.
func TestFreeze(t *testing.T) {
	for _, tc := range []struct{ w, n int }{{16, 10}, {16, PageKeys + 100}, {8, 3*PageKeys + 17}, {0, 1}, {8, 0}} {
		tab := New(tc.w)
		var want []string
		for i := 0; i < tc.n; i++ {
			k := pagedKey(make([]byte, tc.w), uint64(i))
			tab.Insert(k)
			want = append(want, string(k))
		}
		before := tab.Stats()
		keys := tab.Freeze()
		if len(keys) != (tc.n+PageKeys-1)/PageKeys {
			t.Fatalf("width %d, %d keys: %d pages, want %d", tc.w, tc.n, len(keys), (tc.n+PageKeys-1)/PageKeys)
		}
		for p, page := range keys {
			if wantN := min(PageKeys, tc.n-p*PageKeys); len(page) != wantN*tc.w {
				t.Fatalf("width %d, %d keys: page %d is %d bytes, want %d keys", tc.w, tc.n, p, len(page), wantN)
			}
		}
		if got := strings.Join(keys, ""); got != strings.Join(want, "") {
			t.Fatalf("width %d, %d keys: the frozen pages do not hold the keys in id order", tc.w, tc.n)
		}
		if tab.Len() != tc.n || tab.KeyLen() != tc.w || tab.Stats() != before {
			t.Fatalf("width %d, %d keys: after Freeze Len %d, KeyLen %d, Stats %+v; before %d, %d, %+v",
				tc.w, tc.n, tab.Len(), tab.KeyLen(), tab.Stats(), tc.n, tc.w, before)
		}
		k := make([]byte, tc.w)
		for name, write := range map[string]func(){
			"Insert":      func() { tab.Insert(k) },
			"InsertBatch": func() { tab.InsertBatch(k, make([]int32, 1)) },
			"Append":      func() { tab.Append(k) },
			"Reset":       func() { tab.Reset() },
			"Freeze":      func() { tab.Freeze() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("width %d, %d keys: %s after Freeze did not panic", tc.w, tc.n, name)
					}
				}()
				write()
			}()
		}
	}
}

// TestRecycledSegmentsClean: a table whose splits draw the segments
// another table gave back, at Freeze or by Release, finds none of that
// table's keys, and reads the same Stats as a table built beside it
// before anything was given back. Releasing a table twice gives its
// segments back once: two tables built after it share none.
func TestRecycledSegmentsClean(t *testing.T) {
	const n = 20_000 // about ten full segments at half load
	build := func(from uint64) *Table {
		tab, key := New(16), make([]byte, 16)
		for i := uint64(0); i < n; i++ {
			tab.Insert(pagedKey(key, from+i))
		}
		return tab
	}
	segments := func(tab *Table) map[*uint64]bool {
		m := map[*uint64]bool{}
		for _, seg := range tab.dir {
			if len(seg.slots) == segSlots {
				m[&seg.slots[0]] = true
			}
		}
		return m
	}
	want := build(n).Stats()
	for _, end := range []string{"Freeze", "Release"} {
		old := build(0)
		given := segments(old)
		if end == "Freeze" {
			old.Freeze()
		} else {
			old.Release()
		}
		tab := build(n)
		reused := 0
		for p := range segments(tab) {
			if given[p] {
				reused++
			}
		}
		if reused == 0 {
			t.Fatalf("after %s: none of the %d segments given back was reused", end, len(given))
		}
		key := make([]byte, 16)
		for i := uint64(0); i < n; i++ {
			if e := tab.Lookup(pagedKey(key, i)); e != -1 {
				t.Fatalf("after %s: key %d of the old table found at entry %d", end, i, e)
			}
			if e := tab.Lookup(pagedKey(key, n+i)); e != int32(i) {
				t.Fatalf("after %s: key %d found at entry %d, want %d", end, n+i, e, i)
			}
		}
		if got := tab.Stats(); got != want {
			t.Errorf("after %s, with %d recycled segments: Stats %+v, want %+v", end, reused, got, want)
		}
		tab.Release()
		tab.Release() // gives nothing back twice
		a, b := build(0), build(n)
		for p := range segments(b) {
			if segments(a)[p] {
				t.Fatalf("after a second Release: two live tables share a segment")
			}
		}
	}
}
