package sortscan

import (
	"path/filepath"
	"runtime"
	"testing"

	"awra/internal/exec/scan"
	"awra/internal/gen"
)

// q1Run is perf's batch-sortscan (shards 0) or batch-parallel
// repetition without the harness: Q1 over the synthetic cube under the
// benchmark's sort key, serial or on that many shard workers.
func q1Run(tb testing.TB, rows int64, shards int) func() {
	tb.Helper()
	dir := tb.TempDir()
	fact := filepath.Join(dir, "cube.rec")
	synth, err := gen.Synth(fact, rows, gen.SynthConfig{Seed: 2006})
	if err != nil {
		tb.Fatal(err)
	}
	c := q1Workflow(tb, synth)
	return func() {
		opts := Options{EngineOptions: scan.EngineOptions{TempDir: dir}, SortKey: q1SortKey, Workers: shards}
		if _, err = RunSharded(c, scan.FileInput(fact), opts); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkShardedQ1 is the in-process A/B for a parallel change: the
// 200k-row cube, `make bench-shard`.
func BenchmarkShardedQ1(b *testing.B) {
	run := q1Run(b, 200_000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// allocPerRow is the bytes a Q1 run over rows fact rows allocates per
// row, averaged over three runs after a warm-up.
func allocPerRow(t *testing.T, rows int64, shards int) float64 {
	const runs = 3
	run := q1Run(t, rows, shards)
	run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / float64(rows)
	t.Logf("%.0f bytes allocated per fact row", perRow)
	return perRow
}

// TestSortAllocationBound: a serial sort/scan run reads the fact file
// straight into the sort's arena, packs each row's comparator columns
// into the bits the input's codes span and counts them with cache-sized
// counters, so beside the arena, one packed key word a row and the
// index sort's scratch, the sort allocates nothing per row. Q1 over a
// 20k-row cube allocates about 540 bytes per fact row that way (549
// under the race detector). A uint64 per comparator column — five a row
// — with flush batches' sort columns unpacked and their keys copied out
// of a scratch buffer cost 578 bytes per row on the same input; cell
// tables whose key arenas and aggregate slabs doubled and copied, 592;
// a reader chunk sized for the file, two view slices of a chunk's rows
// and a row copy into the arena, 684. The bound sits below the 578, so
// none of these can come back unnoticed.
func TestSortAllocationBound(t *testing.T) {
	if perRow := allocPerRow(t, 20_000, 0); perRow >= 560 {
		t.Errorf("%.0f bytes allocated per fact row, want < 560", perRow)
	}
}

// TestShardedAllocationBound: the rows of a sharded run exist once — in
// the sort's arena, which the sort fills straight from the file and the
// workers scan in place — beside their packed key words, the workers'
// cell tables and the result maps. Q1 over a 20k-row cube with two
// workers allocates about 614 bytes per fact row that way (624 under
// the race detector). Unpacked key columns and flush scratch cost 660
// bytes per row; cell tables whose key arenas and aggregate slabs
// doubled and copied, 687; the reader chunk and view slices the sort
// read through before those, 779; the shard files before those, a
// writer buffer per shard and, per worker, a second arena, key columns,
// a read buffer and a sorted copy's write buffer, 1,214. The bound sits
// below the 660, so none of these can come back unnoticed.
func TestShardedAllocationBound(t *testing.T) {
	if perRow := allocPerRow(t, 20_000, 2); perRow >= 640 {
		t.Errorf("%.0f bytes allocated per fact row, want < 640", perRow)
	}
}
