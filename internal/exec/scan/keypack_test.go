package scan

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"awra/internal/model"
	"awra/internal/storage"
)

// packAll packs n rows of kp columns (row r at keys[r*kp:r*kp+kp]) the
// way the sort packs a chunk: bounds over the rows, then one packed row
// each.
func packAll(keys []uint64, kp, n int) (*KeyPacker, []uint64) {
	lo, hi := make([]uint64, kp), make([]uint64, kp)
	if n > 0 {
		copy(lo, keys[:kp])
		copy(hi, keys[:kp])
	}
	for r := 1; r < n; r++ {
		for t, v := range keys[r*kp : r*kp+kp] {
			lo[t], hi[t] = min(lo[t], v), max(hi[t], v)
		}
	}
	pk := new(KeyPacker)
	kw := pk.Plan(lo, hi)
	packed := make([]uint64, n*kw)
	for r := 0; r < n; r++ {
		for i := range pk.Fields() {
			f := &pk.Fields()[i]
			f.Put(packed[r*kw:r*kw+kw], keys[r*kp+f.Col])
		}
	}
	return pk, packed
}

// checkPacked fails unless the packed rows read every column back and
// order, pair by pair where there are few rows and by sorted
// permutation always, exactly as the columns do.
func checkPacked(t *testing.T, name string, keys []uint64, kp, n int) *KeyPacker {
	t.Helper()
	pk, packed := packAll(keys, kp, n)
	kw := pk.Words()
	var need uint
	for i := range pk.Fields() {
		need += pk.Fields()[i].width
	}
	if kw > kp || uint(kw)*64 < need {
		t.Fatalf("%s: %d columns of %d bits packed into %d words", name, kp, need, kw)
	}
	for r := 0; r < n; r++ {
		for c := 0; c < kp; c++ {
			if got := pk.Value(packed[r*kw:r*kw+kw], c); got != keys[r*kp+c] {
				t.Fatalf("%s: row %d column %d reads back %#x, want %#x", name, r, c, got, keys[r*kp+c])
			}
		}
	}
	if n <= 64 {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if got, want := slices.Compare(packed[a*kw:a*kw+kw], packed[b*kw:b*kw+kw]),
					slices.Compare(keys[a*kp:a*kp+kp], keys[b*kp:b*kp+kp]); got != want {
					t.Fatalf("%s: rows %d and %d compare %d packed, %d by column", name, a, b, got, want)
				}
			}
		}
	}
	want := identity(n)
	compareSort(want, keys, kp, nil)
	got := identity(n)
	new(IdxSorter).Sort(got, packed, kw, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the packed permutation differs from the column sort", name)
	}
	return pk
}

// TestPackedOrderMatchesColumns: sorting rows by their packed words
// gives exactly the permutation the comparison sort gives on the
// unpacked columns, on the sets whose packing has an edge: negative
// codes, constant columns, a column spanning all 64 bits, columns that
// need several words between them, and sets of no rows and one row.
func TestPackedOrderMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	enc := func(v int64) uint64 { return uint64(v) ^ 1<<63 }
	for _, tc := range []struct {
		name  string
		n     int
		words int // the packed width the case must reach
		col   []func(r int) uint64
	}{
		{"negative codes", 5000, 1, []func(int) uint64{
			func(int) uint64 { return enc(rng.Int63n(2000) - 1000) },
			func(int) uint64 { return enc(-1 - rng.Int63n(50)) },
		}},
		{"constant column", 3000, 1, []func(int) uint64{
			func(int) uint64 { return enc(rng.Int63n(9)) },
			func(int) uint64 { return enc(-7) },
			func(int) uint64 { return enc(rng.Int63n(300)) },
		}},
		{"all constant", 100, 0, []func(int) uint64{
			func(int) uint64 { return enc(4) },
			func(int) uint64 { return enc(math.MinInt64) },
		}},
		{"full 64-bit range", 4000, 3, []func(int) uint64{
			func(int) uint64 { return enc(rng.Int63n(4)) },
			func(r int) uint64 {
				switch r {
				case 0:
					return 0
				case 1:
					return math.MaxUint64
				}
				return rng.Uint64()
			},
			func(int) uint64 { return enc(rng.Int63n(1000)) },
		}},
		{"several words", 6000, 3, []func(int) uint64{
			func(int) uint64 { return enc(rng.Int63n(1 << 30)) },
			func(int) uint64 { return enc(rng.Int63n(1 << 30)) },
			func(int) uint64 { return enc(rng.Int63n(1<<40) - 1<<39) },
			func(int) uint64 { return enc(rng.Int63n(1 << 40)) },
			func(int) uint64 { return enc(rng.Int63n(3)) },
		}},
		{"duplicate rows", 2000, 1, []func(int) uint64{
			func(r int) uint64 { return enc(int64(r % 7)) },
			func(r int) uint64 { return enc(int64(r % 5)) },
		}},
		{"few rows across words", 40, 2, []func(int) uint64{
			func(r int) uint64 { return enc(int64(r%3) << 40) },
			func(r int) uint64 { return enc(int64(r%4) << 50) },
		}},
		{"one row", 1, 0, []func(int) uint64{
			func(int) uint64 { return enc(-12) },
			func(int) uint64 { return math.MaxUint64 },
		}},
		{"no rows", 0, 0, []func(int) uint64{
			func(int) uint64 { return 0 },
		}},
	} {
		kp := len(tc.col)
		keys := make([]uint64, tc.n*kp)
		for r := 0; r < tc.n; r++ {
			for c, f := range tc.col {
				keys[r*kp+c] = f(r)
			}
		}
		if pk := checkPacked(t, tc.name, keys, kp, tc.n); pk.Words() != tc.words {
			t.Errorf("%s: %d packed words, want %d", tc.name, pk.Words(), tc.words)
		}
	}
}

// TestSpilledChunksPackToTheirOwnWidths: a spilled input whose chunks
// span very different code ranges packs each chunk to its own width —
// narrow codes to one word, wide negative ones to one per column — and
// the merge of those runs, which compares unpacked columns, still
// yields exactly the stable sort of the rows by their codes.
func TestSpilledChunksPackToTheirOwnWidths(t *testing.T) {
	const dims, chunk = 3, 400
	rng := rand.New(rand.NewSource(2006))
	ranges := []func() int64{
		func() int64 { return rng.Int63n(100) },                   // 21 bits: one word
		func() int64 { return rng.Int63() - rng.Int63() },         // ~64 bits a column
		func() int64 { return rng.Int63n(1<<30) - 1<<29 },         // 90 bits: two words
		func() int64 { return -rng.Int63n(3) },                    // 4 bits: one word
		func() int64 { return rng.Int63n(100) + math.MaxInt64/2 }, // far from chunk 0
	}
	var recs []model.Record
	for _, code := range ranges {
		for i := 0; i < chunk; i++ {
			r := model.Record{Dims: make([]int64, dims), Ms: []float64{float64(len(recs))}}
			for d := range r.Dims {
				r.Dims[d] = code()
			}
			if i%10 == 9 {
				copy(r.Dims, recs[len(recs)-1-rng.Intn(i)].Dims) // a tie only position breaks
			}
			recs = append(recs, r)
		}
	}
	// A last chunk repeats the first: ties across runs, which only the
	// run order breaks.
	for i := 0; i < chunk; i++ {
		recs = append(recs, model.Record{Dims: recs[i].Dims, Ms: []float64{float64(len(recs))}})
	}
	// Each chunk's packed width, as the sort packs it.
	cols := newSortCols(nil, nil, nil, dims)
	rb := storage.Header{NumDims: dims, NumMeasures: 1, Version: 1}.DiskRowBytes() // in-memory rows' layout
	var widths []int
	for at := 0; at < len(recs); at += chunk {
		cs := newChunkState(chunk*rb, dims)
		cs.rows = cs.rows[:chunk*rb]
		for i := range recs[at : at+chunk] {
			EncodeRow(cs.rows[i*rb:i*rb+rb], &recs[at+i])
		}
		cs.bound(cs.rows, rb)
		cs.n = chunk
		cs.pack(cols, rb)
		widths = append(widths, cs.pk.Words())
	}
	if want := []int{1, 3, 2, 1, 1, 1}; !slices.Equal(widths, want) {
		t.Fatalf("chunks packed to %v words, want %v", widths, want)
	}

	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b model.Record) int { return slices.Compare(a.Dims, b.Dims) })
	in, err := RecordsInput(recs, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2} {
		sorted, err := SortByKey(in, nil, nil, nil, parts, EngineOptions{TempDir: t.TempDir(), ChunkRecords: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if sorted.Stats().Runs < len(widths) {
			t.Fatalf("parts=%d: %d runs, want a spill per chunk", parts, sorted.Stats().Runs)
		}
		streams := drainSorted(t, sorted, parts, dims, 1)
		sorted.Close()
		var got []model.Record
		for _, s := range streams {
			got = append(got, s...)
		}
		if parts == 1 && !sameRecords(want, got) {
			t.Fatalf("the merge of differently packed runs is not the stable sort of the rows")
		}
		if parts > 1 {
			// Every part is the sorted stream restricted to its rows.
			for p, s := range streams {
				if !slices.IsSortedFunc(s, func(a, b model.Record) int {
					if c := slices.Compare(a.Dims, b.Dims); c != 0 {
						return c
					}
					return cmp.Compare(a.Ms[0], b.Ms[0])
				}) {
					t.Fatalf("parts=%d: part %d is out of order", parts, p)
				}
			}
			if len(got) != len(recs) {
				t.Fatalf("parts=%d: %d of %d rows streamed", parts, len(got), len(recs))
			}
		}
	}
}

// FuzzPackedOrder: on random columns within random bounds, packed words
// compare exactly as their columns compare lexicographically, read
// every column back, and sort into the columns' permutation. Each
// column takes a width byte and an 8-byte base from the input's head;
// the rest are its rows' values, masked to that width and offset by the
// base (wrapping), so widths from 0 to 64 bits and every offset occur.
func FuzzPackedOrder(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 1, 64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint8(1))
	f.Add(make([]byte, 64), uint8(3))
	f.Add([]byte("\x40\xff\xff\xff\xff\xff\xff\xff\xff\x20\x00\x00\x00\x00\x00\x00\x00\x80 a longer tail of row values to pack"), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, ncols uint8) {
		kp := 1 + int(ncols%6)
		if len(raw) < 9*kp {
			return
		}
		mask, base := make([]uint64, kp), make([]uint64, kp)
		for c := 0; c < kp; c++ {
			w := uint(raw[9*c]) % 65
			mask[c] = 1<<w - 1
			base[c] = binary.LittleEndian.Uint64(raw[9*c+1:])
		}
		raw = raw[9*kp:]
		var keys []uint64
		for len(raw) > 0 && len(keys) < 64*kp {
			var b [8]byte
			raw = raw[copy(b[:], raw):]
			keys = append(keys, base[len(keys)%kp]+binary.LittleEndian.Uint64(b[:])&mask[len(keys)%kp])
		}
		n := len(keys) / kp
		checkPacked(t, "fuzz", keys[:n*kp], kp, n)
	})
}
