package scan

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"awra/internal/model"
	"awra/internal/storage"
)

// TestRadixSortMatchesComparison: the LSD counting sort must produce
// the exact permutation of the comparison sort (stability + identity
// start order = original-position tiebreak), across column counts and
// duplicate-heavy distributions.
func TestRadixSortMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n, kp  int
		ranges []uint64
	}{
		{5000, 1, []uint64{100}},
		{5000, 2, []uint64{7, 500000}},
		{8192, 3, []uint64{2, 3, 50}}, // heavy duplicates, fused passes
		{4096, 2, []uint64{1, 1}},     // all-equal columns
	} {
		keys := make([]uint64, tc.n*tc.kp)
		for i := 0; i < tc.n; i++ {
			for j, r := range tc.ranges {
				keys[i*tc.kp+j] = uint64(rng.Int63n(int64(r))) + (1 << 63)
			}
		}
		radix := make([]int32, tc.n)
		cmp := make([]int32, tc.n)
		for i := range radix {
			radix[i] = int32(i)
			cmp[i] = int32(i)
		}
		if !radixSortIdx(radix, keys, tc.kp, nil) {
			t.Fatalf("n=%d kp=%d: radix sort refused narrow ranges", tc.n, tc.kp)
		}
		sort.Sort(&chunkSorter{idx: cmp, keys: keys, kp: tc.kp})
		for i := range radix {
			if radix[i] != cmp[i] {
				t.Fatalf("n=%d kp=%d: permutation differs at %d: %d vs %d",
					tc.n, tc.kp, i, radix[i], cmp[i])
			}
		}
	}
}

// TestRadixSortFallsBack: wide value ranges and small inputs must
// refuse (return false, idx untouched) so the caller keeps the
// comparison sort.
func TestRadixSortFallsBack(t *testing.T) {
	n := 5000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * (radixMaxRange / 2) // range >> radixMaxRange
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(n - 1 - i)
	}
	if radixSortIdx(idx, keys, 1, nil) {
		t.Fatal("radix sort accepted a range above radixMaxRange")
	}
	for i := range idx {
		if idx[i] != int32(n-1-i) {
			t.Fatal("refused sort mutated idx")
		}
	}
	small := []int32{2, 0, 1}
	if radixSortIdx(small, []uint64{5, 1, 3}, 1, nil) {
		t.Fatal("radix sort accepted a tiny input (comparison sort is faster there)")
	}
}

// TestSortFileByKeyMatchesRecordSort: the byte-level external sort
// must order records exactly as the record-level storage.SortFile
// under the same key — including the full-order tiebreak (key, then
// all base dims, then position) the engines' append-only cell path
// relies on. Covered on both the single-run and multi-run merge paths.
func TestSortFileByKeyMatchesRecordSort(t *testing.T) {
	dims := []*model.Dimension{
		model.FixedFanout("A", 4, 3),
		model.FixedFanout("B", 4, 3),
		model.FixedFanout("C", 4, 3),
	}
	s, err := model.NewSchema(dims, "m")
	if err != nil {
		t.Fatal(err)
	}
	recs := randRecords(9000, 3, 1, 7)
	// Duplicate a slice of records so ties are common and the tiebreak
	// order actually matters.
	recs = append(recs, recs[:1500]...)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	writeFile(t, fact, recs, 3, 1)

	key := model.SortKey{{Dim: 0, Lvl: 1}, {Dim: 2, Lvl: 0}}
	nk, err := key.Normalize(s)
	if err != nil {
		t.Fatal(err)
	}
	oldOut := filepath.Join(dir, "old.sorted")
	less := func(a, b *model.Record) bool { return nk.RecordLess(s, a, b) }
	if _, err := storage.SortFile(fact, oldOut, less, storage.SortOptions{TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	want, _, err := storage.ReadAll(oldOut)
	if err != nil {
		t.Fatal(err)
	}
	// Single run by default and when the input exactly fills one chunk:
	// both must take the fast path, which writes no run file — a TempDir
	// that does not exist proves it. Then the multi-run merge.
	absent := filepath.Join(dir, "absent")
	for _, tc := range []struct {
		chunk, runs int
		tempDir     string
	}{{0, 1, absent}, {len(recs), 1, absent}, {1000, 11, dir}} {
		newOut := filepath.Join(dir, "new.sorted")
		stats, err := SortFileByKey(fact, newOut, s, nk, SortOptions{TempDir: tc.tempDir, ChunkRecords: tc.chunk})
		if err != nil {
			t.Fatalf("ChunkRecords=%d: %v", tc.chunk, err)
		}
		if stats.Runs != tc.runs {
			t.Errorf("ChunkRecords=%d: %d runs, want %d", tc.chunk, stats.Runs, tc.runs)
		}
		got, _, err := storage.ReadAll(newOut)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecords(want, got) {
			t.Fatalf("ChunkRecords=%d: byte sort order differs from record sort", tc.chunk)
		}
	}
}

// TestSortAllocatesForTheFile: the sort sizes its row arena, key
// columns and read buffer from the header, so a small file costs a
// small multiple of its own size and not the default 256 MB chunk.
func TestSortAllocatesForTheFile(t *testing.T) {
	s, err := model.NewSchema([]*model.Dimension{
		model.FixedFanout("A", 3, 10),
		model.FixedFanout("B", 3, 10),
	}, "m")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	// Codes below 100: the radix sort's counters scale with the code
	// range (up to 8 MB), not with the file, and are not under test.
	recs := randRecords(10000, 2, 1, 3)
	for i := range recs {
		recs[i].Dims[0] %= 100
		recs[i].Dims[1] %= 100
	}
	writeFile(t, fact, recs, 2, 1)
	fi, err := os.Stat(fact)
	if err != nil {
		t.Fatal(err)
	}
	nk, err := model.SortKey{{Dim: 0, Lvl: 1}}.Normalize(s)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SortFileByKey(fact, filepath.Join(dir, "sorted.rec"), s, nk, SortOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*fi.Size()); got >= limit {
		t.Errorf("sorting a %d-byte file allocated %d bytes, want < %d", fi.Size(), got, limit)
	}
}
