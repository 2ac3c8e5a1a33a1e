package scan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"awra/internal/faultfs"
	"awra/internal/model"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// refSortIdx is the ordering contract stated directly: rows by key
// columns, ties by row number.
func refSortIdx(idx []int32, keys []uint64, kp int) {
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := int(idx[i]), int(idx[j])
		for t := 0; t < kp; t++ {
			if keys[a*kp+t] != keys[b*kp+t] {
				return keys[a*kp+t] < keys[b*kp+t]
			}
		}
		return false
	})
}

func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// TestRadixSortMatchesComparison: the LSD counting sort, the comparison
// fallback and the contract's reference must produce the same
// permutation (stability + ascending start order = original-position
// tiebreak), across column counts, duplicate-heavy distributions and a
// sorter reused from one set to the next.
func TestRadixSortMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s IdxSorter
	for _, tc := range []struct {
		n, kp  int
		ranges []uint64
		radix  bool
	}{
		{5000, 1, []uint64{100}, true},
		{40000, 2, []uint64{7, 500000}, true},
		{5000, 2, []uint64{7, 500000}, false}, // 5000 rows do not pay for 500000 counters
		{8192, 3, []uint64{2, 3, 50}, true},   // heavy duplicates, fused passes
		{4096, 2, []uint64{1, 1}, true},       // all-equal columns
		{100, 2, []uint64{40, 40}, true},
		{50, 2, []uint64{40, 40}, false}, // comparison sort is faster there
		{5000, 1, []uint64{1 << 40}, false},
	} {
		keys := make([]uint64, tc.n*tc.kp)
		for i := 0; i < tc.n; i++ {
			for j, r := range tc.ranges {
				keys[i*tc.kp+j] = uint64(rng.Int63n(int64(r))) + (1 << 63)
			}
		}
		want := identity(tc.n)
		refSortIdx(want, keys, tc.kp)
		radix := identity(tc.n)
		if took := s.radix(radix, keys, tc.kp, nil); took != tc.radix {
			t.Fatalf("n=%d kp=%d ranges=%v: radix sort took the set = %v, want %v", tc.n, tc.kp, tc.ranges, took, tc.radix)
		} else if !took {
			for i := range radix {
				if radix[i] != int32(i) {
					t.Fatalf("n=%d kp=%d: refused sort mutated idx", tc.n, tc.kp)
				}
			}
		}
		got := identity(tc.n)
		s.Sort(got, keys, tc.kp, nil)
		for i := range want {
			if got[i] != want[i] || (tc.radix && radix[i] != want[i]) {
				t.Fatalf("n=%d kp=%d ranges=%v: permutation differs at %d: Sort %d, radix %d, reference %d",
					tc.n, tc.kp, tc.ranges, i, got[i], radix[i], want[i])
			}
		}
	}
}

// TestSortFileByKeyMatchesRecordSort: the byte-level external sort
// must order records exactly as a stable in-memory sort under the
// key's RecordLess — including the full-order tiebreak (key, then all
// base dims, then position) the engines' append-only cell path relies
// on. Covered on both the single-run and multi-run merge paths.
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
	want, _, err := storage.ReadAll(fact)
	if err != nil {
		t.Fatal(err)
	}
	storage.SortRecords(want, func(a, b *model.Record) bool { return nk.RecordLess(s, a, b) })
	refOut := filepath.Join(dir, "ref.sorted")
	if err := storage.WriteAll(refOut, 3, 1, want); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	// Single run by default and when the input exactly fills one chunk:
	// both must stay in memory, which writes no run file — a TempDir
	// that does not exist proves it. Then the multi-run merge. The file
	// is the sorted stream drained, rows verbatim: byte for byte the
	// record sort's output written out.
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
		if gotBytes, err := os.ReadFile(newOut); err != nil || !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("ChunkRecords=%d: sorted copy is not byte-identical to the record sort's (%v)", tc.chunk, err)
		}
	}
}

// TestSortByKeyInputLevel: a relation whose codes are above base — the
// relational baseline's spooled intermediates — sorts by a key from its
// own levels exactly like a stable in-memory sort by (group codes,
// input coordinates). A key part at the input's level takes the code as
// it is and pins its dimension; the others generalize from the input
// level, not from base. In memory, spilled, and spilled in parallel.
func TestSortByKeyInputLevel(t *testing.T) {
	dims := []*model.Dimension{
		model.FixedFanout("A", 4, 3),
		model.FixedFanout("B", 4, 3),
		model.FixedFanout("C", 4, 3),
	}
	s, err := model.NewSchema(dims, "m")
	if err != nil {
		t.Fatal(err)
	}
	from := model.Gran{1, 1, 2}
	key := model.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 1}, {Dim: 2, Lvl: 3}}
	recs := randRecords(4000, 3, 1, 13)
	for i := range recs {
		recs[i].Dims[0] %= 200
		recs[i].Dims[1] %= 40
		recs[i].Dims[2] %= 30
	}
	recs = append(recs, recs[:800]...) // equal rows: only position orders them
	for i := range recs {
		recs[i].Ms[0] = float64(i)
	}
	dir := t.TempDir()
	rel := filepath.Join(dir, "rel.rec")
	writeFile(t, rel, recs, 3, 1)

	group := func(r *model.Record, p model.SortPart) int64 {
		return dims[p.Dim].Up(from[p.Dim], p.Lvl, r.Dims[p.Dim])
	}
	want := append([]model.Record{}, recs...)
	storage.SortRecords(want, func(a, b *model.Record) bool {
		for _, p := range key {
			if ga, gb := group(a, p), group(b, p); ga != gb {
				return ga < gb
			}
		}
		for d := range a.Dims {
			if a.Dims[d] != b.Dims[d] {
				return a.Dims[d] < b.Dims[d]
			}
		}
		return false
	})
	for _, tc := range []struct {
		name    string
		chunk   int
		workers int
	}{{"memory", 0, 0}, {"spilled", 500, 0}, {"spilled-parallel", 500, 2}} {
		sorted, err := SortByKey(rel, s, key, from, 1, SortOptions{TempDir: dir, ChunkRecords: tc.chunk, Workers: tc.workers})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := drainSorted(t, sorted, 1, 3, 1)[0]
		sorted.Close()
		if !sameRecords(want, got) {
			t.Fatalf("%s: order differs from the stable sort by (group codes, input coordinates)", tc.name)
		}
	}
}

// TestSortIsPermutationQuick: with no schema, key or input level the
// sort orders raw codes by all columns — negative codes included — as a
// stable lexicographic record sort does, spilling runs of four rows.
func TestSortIsPermutationQuick(t *testing.T) {
	dir := t.TempDir()
	f := func(vals []int16) bool {
		in := filepath.Join(dir, "in.rec")
		recs := make([]model.Record, len(vals))
		for j, v := range vals {
			recs[j] = model.Record{Dims: []int64{int64(v % 8), int64(v)}, Ms: []float64{float64(j)}}
		}
		writeFile(t, in, recs, 2, 1)
		sorted, err := SortByKey(in, nil, nil, nil, 1, SortOptions{ChunkRecords: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer sorted.Close()
		got := drainSorted(t, sorted, 1, 2, 1)[0]
		storage.SortRecords(recs, func(a, b *model.Record) bool {
			return a.Dims[0] < b.Dims[0] || a.Dims[0] == b.Dims[0] && a.Dims[1] < b.Dims[1]
		})
		return sameRecords(recs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSortFileByKeyCleansUp: however a sort ends — canceled, over its
// spill budget, failing to create, write or read a file, or succeeding
// under a guard — it leaves no run file and no partial output behind.
func TestSortFileByKeyCleansUp(t *testing.T) {
	recs := make([]model.Record, 5000)
	for i := range recs {
		recs[i] = model.Record{Dims: []int64{int64(i % 7), int64(i)}, Ms: []float64{float64(i)}}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		fs      *faultfs.FS
		guard   *qguard.Guard
		workers int
		want    error
	}{
		{name: "canceled", guard: qguard.New(canceled, qguard.Limits{}), want: qguard.ErrCanceled},
		{name: "canceled-parallel", guard: qguard.New(canceled, qguard.Limits{}), workers: 4, want: qguard.ErrCanceled},
		{name: "spill-budget", guard: qguard.New(context.Background(), qguard.Limits{MaxSpillBytes: 1024}), want: qguard.ErrBudgetExceeded},
		// The input is written before the swap, so the failures land on
		// the sort's own files.
		{name: "write-failure", fs: faultfs.New().FailWriteAfter(8192), want: faultfs.ErrInjected},
		{name: "write-failure-parallel", fs: faultfs.New().FailWriteAfter(8192), workers: 4, want: faultfs.ErrInjected},
		{name: "create-failure-parallel", fs: faultfs.New().FailCreate(3), workers: 4, want: faultfs.ErrInjected},
		{name: "read-failure", fs: faultfs.New().FailReadAfter(16 << 10), want: faultfs.ErrInjected},
		{name: "under-guard", guard: qguard.New(context.Background(), qguard.Limits{}), workers: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in := filepath.Join(dir, "in.rec")
			out := filepath.Join(dir, "out.rec")
			writeFile(t, in, recs, 2, 1)
			if tc.fs != nil {
				defer storage.SwapFS(tc.fs)()
			}
			st, err := SortFileByKey(in, out, nil, nil, SortOptions{
				ChunkRecords: 100, TempDir: dir, Workers: tc.workers, Guard: tc.guard,
			})
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
				if _, err := os.Stat(out); !os.IsNotExist(err) {
					t.Error("partial output left behind")
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if st.Records != 5000 || st.Runs != 50 {
					t.Errorf("stats %+v, want 5000 records in 50 runs", st)
				}
				if tc.guard.SpillBytes() == 0 {
					t.Error("run files not charged to the guard")
				}
				got, _, err := storage.ReadAll(out)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].Dims[0] > got[i].Dims[0] {
						t.Fatalf("not sorted at %d", i)
					}
				}
				os.Remove(out)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Errorf("%d entries beside the input, want none", len(entries)-1)
			}
		})
	}
}

// drainSorted opens every part of a sort and decodes its stream.
func drainSorted(t *testing.T, s *Sorted, parts, dims, ms int) [][]model.Record {
	t.Helper()
	out := make([][]model.Record, parts)
	for p := range out {
		src, err := s.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		for {
			batch, err := src.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			for _, row := range batch {
				rec := model.Record{Dims: make([]int64, dims), Ms: make([]float64, ms)}
				row.DecodeInto(rec.Dims, rec.Ms)
				out[p] = append(out[p], rec)
			}
		}
		if int64(len(out[p])) != s.Rows(p) || src.TotalRecords() != s.Rows(p) {
			t.Errorf("part %d streamed %d rows, Rows says %d", p, len(out[p]), s.Rows(p))
		}
		src.Close()
	}
	return out
}

// TestSortByKeyParts: a sort into parts is the one-part sort dealt out
// by key column 0. Every unit (the leading key part's code) lands in
// exactly one part, each part's stream is the full sorted stream
// restricted to its units — so the ordering contract holds inside every
// part — and the greedy assignment keeps the largest part within one
// unit of the mean. Held in memory, spilled serially and spilled on
// parallel run writers alike, and with more parts than units.
func TestSortByKeyParts(t *testing.T) {
	dims := []*model.Dimension{
		model.FixedFanout("A", 4, 3),
		model.FixedFanout("B", 4, 3),
	}
	s, err := model.NewSchema(dims, "m")
	if err != nil {
		t.Fatal(err)
	}
	recs := randRecords(6000, 2, 1, 11)
	for i := range recs {
		recs[i].Dims[0] %= 81 // nine units at level 2, skewed below
		if i%3 == 0 {
			recs[i].Dims[0] %= 9
		}
	}
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	writeFile(t, fact, recs, 2, 1)
	nk, err := model.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 1}}.Normalize(s)
	if err != nil {
		t.Fatal(err)
	}
	unit := func(r model.Record) int64 { return dims[0].Up(0, 2, r.Dims[0]) }
	whole, err := SortByKey(fact, s, nk, nil, 1, SortOptions{TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	full := drainSorted(t, whole, 1, 2, 1)[0]
	whole.Close()
	if len(full) != len(recs) {
		t.Fatalf("one part streamed %d of %d rows", len(full), len(recs))
	}
	unitRows := map[int64]int64{}
	var maxUnit int64
	for _, r := range full {
		unitRows[unit(r)]++
		maxUnit = max(maxUnit, unitRows[unit(r)])
	}

	for _, parts := range []int{2, 4, 7, 12} {
		for _, tc := range []struct {
			name    string
			chunk   int
			workers int
		}{{"memory", 0, 0}, {"spilled", 700, 0}, {"spilled-parallel", 700, 3}} {
			sorted, err := SortByKey(fact, s, nk, nil, parts, SortOptions{
				TempDir: dir, ChunkRecords: tc.chunk, Workers: tc.workers,
			})
			if err != nil {
				t.Fatalf("parts=%d %s: %v", parts, tc.name, err)
			}
			streams := drainSorted(t, sorted, parts, 2, 1)
			if wantRuns := parts; tc.chunk == 0 && sorted.Stats().Runs != wantRuns {
				t.Errorf("parts=%d %s: %d runs, want %d", parts, tc.name, sorted.Stats().Runs, wantRuns)
			}
			sorted.Close()
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Errorf("parts=%d %s: Close left %d entries beside the fact file", parts, tc.name, len(entries)-1)
			}
			owner := map[int64]int{}
			var largest int64
			for p, rows := range streams {
				largest = max(largest, int64(len(rows)))
				for _, r := range rows {
					if q, seen := owner[unit(r)]; seen && q != p {
						t.Fatalf("parts=%d %s: unit %d is in parts %d and %d", parts, tc.name, unit(r), q, p)
					}
					owner[unit(r)] = p
				}
			}
			want := make([][]model.Record, parts)
			for _, r := range full {
				want[owner[unit(r)]] = append(want[owner[unit(r)]], r)
			}
			for p, rows := range streams {
				if !sameRecords(want[p], rows) {
					t.Fatalf("parts=%d %s: part %d is not the sorted stream restricted to its units", parts, tc.name, p)
				}
			}
			if len(owner) != len(unitRows) {
				t.Errorf("parts=%d %s: %d units streamed, want %d", parts, tc.name, len(owner), len(unitRows))
			}
			// In memory the greedy assignment sees every unit's size, and
			// longest-first onto the least-loaded part stays within one
			// unit of the mean; a spilled sort only knows the chunks so far.
			if mean := int64(len(recs)) / int64(parts); tc.chunk == 0 && largest > mean+maxUnit {
				t.Errorf("parts=%d %s: largest part %d rows, mean %d, largest unit %d", parts, tc.name, largest, mean, maxUnit)
			}
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

// BenchmarkIdxSorter sorts flush-batch-shaped sets — two dense code
// columns — at sizes either side of radixMinRows, through Sort (the
// algorithm the thresholds pick) and through the comparison sort alone
// (a column range no counting pass accepts). The sizes where the two
// lines cross are where radixMinRows comes from.
func BenchmarkIdxSorter(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 32, 64, 128, 1024, 4096} {
		keys := make([]uint64, 2*n)
		wide := make([]uint64, 2*n)
		for i := 0; i < n; i++ {
			keys[2*i] = uint64(rng.Intn(100)) + 1<<63
			keys[2*i+1] = uint64(rng.Intn(100)) + 1<<63
			wide[2*i], wide[2*i+1] = keys[2*i], keys[2*i+1]
		}
		wide[0] = 0 // one outlier makes column 0 uncountable
		for _, tc := range []struct {
			name string
			keys []uint64
		}{{"sort", keys}, {"comparison", wide}} {
			b.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(b *testing.B) {
				var s IdxSorter
				idx := make([]int32, n)
				for i := 0; i < b.N; i++ {
					for j := range idx {
						idx[j] = int32(j)
					}
					s.Sort(idx, tc.keys, 2, nil)
				}
			})
		}
	}
}
