package sortscan

import (
	"path/filepath"
	"runtime"
	"testing"

	"awra/internal/exec/scan"
	"awra/internal/gen"
)

// q1Sharded is perf's batch-parallel repetition without the harness: Q1
// over the synthetic cube under the benchmark's sort key, two shard
// workers.
func q1Sharded(tb testing.TB, rows int64) func() {
	tb.Helper()
	dir := tb.TempDir()
	fact := filepath.Join(dir, "cube.rec")
	synth, err := gen.Synth(fact, rows, gen.SynthConfig{Seed: 2006})
	if err != nil {
		tb.Fatal(err)
	}
	c := q1Workflow(tb, synth)
	return func() {
		opts := ShardedOptions{Options: Options{EngineOptions: scan.EngineOptions{TempDir: dir}, SortKey: q1SortKey}, Shards: 2}
		if _, err := RunSharded(c, scan.FileInput(fact), opts); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkShardedQ1 is the in-process A/B for a parallel change: the
// 200k-row cube, `make bench-shard`.
func BenchmarkShardedQ1(b *testing.B) {
	run := q1Sharded(b, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestShardedAllocationBound: the rows of a sharded run exist once — in
// the sort's arena, which the workers scan in place — beside their key
// columns, the workers' cell tables and the result maps. Q1 over a
// 20k-row cube with two workers allocates about 780 bytes per fact row
// that way. The shard files this replaced cost a writer buffer per
// shard and, per worker, a second arena, key columns, a read buffer and
// a sorted copy's write buffer: 1,214 bytes per row on the same input.
// The bound sits between the two, so buffers of that kind cannot come
// back unnoticed.
func TestShardedAllocationBound(t *testing.T) {
	const rows, runs = 20_000, 3
	run := q1Sharded(t, rows)
	run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / rows
	t.Logf("%.0f bytes allocated per fact row", perRow)
	if perRow >= 1000 {
		t.Errorf("%.0f bytes allocated per fact row, want < 1000", perRow)
	}
}
