package singlescan

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/obs"
)

// q1 writes an n-row gen.Synth cube and compiles the paper's Q1 over
// it as perf/ states it: seven child-granularity counts, each rolled up
// to A1=L2 by counting child regions, summed into one measure.
func q1(tb testing.TB, n int64) (*core.Compiled, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "cube.rec")
	s, err := gen.Synth(path, n, gen.SynthConfig{Seed: 2006})
	if err != nil {
		tb.Fatal(err)
	}
	all := model.LevelALL
	w := core.NewWorkflow(s)
	var ups []string
	for i, g := range []model.Gran{
		{0, 1, all, all}, {0, all, 1, all}, {0, all, all, 1},
		{1, 0, all, all}, {1, all, 0, all}, {1, all, all, all}, {0, 0, all, all},
	} {
		child, up := fmt.Sprintf("child%d", i+1), fmt.Sprintf("per_parent%d", i+1)
		w.Basic(child, g, agg.Count, -1)
		w.Rollup(up, model.Gran{2, all, all, all}, child, agg.Count)
		ups = append(ups, up)
	}
	w.Combine("q1", ups, core.SumOf())
	c, err := w.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return c, path
}

// BenchmarkQ1 is perf's batch-singlescan repetition without the
// harness: Q1 over the 200k-row cube, 613,561 cells in seven tables.
func BenchmarkQ1(b *testing.B) {
	c, path := q1(b, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, scan.FileInput(path), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanAllocationBound: the tables' memory is allocated about once —
// the key arenas and aggregate slabs grow by pages that are never
// copied, the probe indexes by segment splits that discard nothing, and
// the result maps' keys are cut from the frozen arenas — and a morsel
// allocates nothing. Q1 over a 20k-row cube creates 110,552 cells and
// allocates about 121 bytes per cell, most of them the result maps and
// slots. With the slot arrays doubling whole and the keys copied into
// one string for the maps it allocated 164; with the arena and the slabs
// doubling too, and a count cell two words, 247. Mallocs per run are a
// few per growth, page and table (about 1,200), so a scratch buffer
// allocated per morsel, or a key per cell, fails the second bound.
func TestScanAllocationBound(t *testing.T) {
	c, path := q1(t, 20_000)
	var (
		cells  int64
		m0, m1 runtime.MemStats
	)
	const runs = 3
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		res, err := Run(c, scan.FileInput(path), Options{EngineOptions: scan.EngineOptions{Recorder: obs.New()}})
		if err != nil {
			t.Fatal(err)
		}
		cells = res.Stats.CellsCreated
	}
	runtime.ReadMemStats(&m1)
	if cells < 100_000 {
		t.Fatalf("only %d cells created; the bounds below need the per-cell work to dominate", cells)
	}
	perCell := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / float64(cells)
	mallocs := float64(m1.Mallocs-m0.Mallocs) / runs
	t.Logf("%d cells: %.0f bytes allocated per cell, %.0f mallocs per run", cells, perCell, mallocs)
	if perCell >= 140 {
		t.Errorf("%.0f bytes allocated per created cell, want < 140", perCell)
	}
	if mallocs >= 4000 {
		t.Errorf("%.0f mallocs per run, want < 4000", mallocs)
	}
}

// TestResultBuildSpans: the result build is timed under "finalize" when
// nothing spilled, and "spill_merge" opens only around the merge of
// tables that spilled. Both add to the scan time.
func TestResultBuildSpans(t *testing.T) {
	c, path := q1(t, 5_000)
	for _, budget := range []int64{0, 64 << 10} {
		rec := obs.New()
		res, err := Run(c, scan.FileInput(path), Options{
			EngineOptions: scan.EngineOptions{Recorder: rec, TempDir: t.TempDir()},
			MemoryBudget:  budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		spans := map[string]int64{} // microseconds
		for _, s := range rec.Snapshot().Spans {
			spans[s.Name] += s.DurationUs
		}
		spilled := res.Stats.Spills > 0
		if budget > 0 && !spilled {
			t.Fatalf("budget %d: nothing spilled", budget)
		}
		_, fin := spans[obs.SpanFinalize]
		_, merge := spans[obs.SpanSpill]
		if budget == 0 && (!fin || merge) || budget > 0 && !merge {
			t.Errorf("budget %d, spills %d: spans %v; want finalize without spill_merge unbudgeted, spill_merge when spilled", budget, res.Stats.Spills, spans)
		}
		if sum := spans[obs.SpanScan] + spans[obs.SpanFinalize] + spans[obs.SpanSpill]; res.Stats.ScanTime.Microseconds() < sum {
			t.Errorf("budget %d: scan time %v, less than the scan, finalize and spill_merge spans' %d µs", budget, res.Stats.ScanTime, sum)
		}
	}
}
