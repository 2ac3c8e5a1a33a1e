package relbaseline

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/faultfs"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/storage"
)

func setup(t *testing.T) (*model.Schema, *core.Compiled, scan.Input, string) {
	t.Helper()
	s, recs, err := gen.SynthRecords(2000, gen.SynthConfig{Dims: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 2, 1, recs); err != nil {
		t.Fatal(err)
	}
	all := model.LevelALL
	c, err := core.NewWorkflow(s).
		Basic("cnt", model.Gran{1, 1}, agg.Count, -1).
		Rollup("up", model.Gran{2, all}, "cnt", agg.Sum).
		Sliding("win", "up", agg.Avg, []core.Window{{Dim: 0, Lo: -1, Hi: 1}}).
		Combine("ratio", []string{"up", "win"}, core.Ratio(0, 1)).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	return s, c, scan.FileInput(fact), dir
}

func TestRunMeasuresSubset(t *testing.T) {
	_, c, fact, dir := setup(t)
	full, err := Run(c, fact, Options{TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := RunMeasures(c, fact, []string{"ratio"}, Options{TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Tables) != 1 {
		t.Fatalf("subset returned %d tables", len(sub.Tables))
	}
	if !full.Tables["ratio"].Equal(sub.Tables["ratio"], 1e-9) {
		t.Fatal("subset evaluation differs from full run")
	}
	// The full run recomputes everything per measure: strictly more
	// sorts, so more sorted runs, than the single-measure run.
	if full.Stats.SortRuns <= sub.Stats.SortRuns {
		t.Errorf("full run sorts %d runs <= subset's %d; no per-measure recomputation?",
			full.Stats.SortRuns, sub.Stats.SortRuns)
	}
	if sub.Stats.Spills == 0 || sub.Stats.SpillBytes == 0 {
		t.Errorf("materialization stats empty: %+v", sub.Stats)
	}
	if sub.Stats.SortTime <= 0 || sub.Stats.ScanTime <= 0 {
		t.Errorf("sort and scan times not recorded")
	}
}

func TestSpoolCleanup(t *testing.T) {
	_, c, fact, dir := setup(t)
	if _, err := RunMeasures(c, fact, []string{"up"}, Options{TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	// Only the fact file should remain.
	entries, err := filepath.Glob(filepath.Join(dir, "awra-rel-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("leftover spool files: %v", entries)
	}
}

func TestMissingFactFile(t *testing.T) {
	_, c, _, dir := setup(t)
	if _, err := Run(c, scan.FileInput(filepath.Join(dir, "missing.rec")), Options{TempDir: dir}); err == nil {
		t.Fatal("missing fact file accepted")
	}
}

func TestFactSelectionMaterialized(t *testing.T) {
	s, _, fact, dir := setup(t)
	c, err := core.NewWorkflow(s).
		Basic("filtered", model.Gran{1, model.LevelALL}, agg.Count, -1,
			core.Where(core.MWhere(0, core.Gt, 50))).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, fact, Options{TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FactScans < 2 {
		t.Errorf("sigma(D) should scan + re-read the fact file: %+v", res.Stats)
	}
	if len(res.Tables["filtered"].Rows) == 0 {
		t.Error("filter dropped everything unexpectedly")
	}
}

// runningSpans names every span of the snapshot still running.
func runningSpans(spans []*obs.SpanSnapshot) []string {
	var out []string
	for _, s := range spans {
		if s.Running {
			out = append(out, s.Name)
		}
		out = append(out, runningSpans(s.Children)...)
	}
	return out
}

// TestSortFailureEndsSpans: a GROUP BY whose sort fails on a read error
// returns with its measure and sort spans ended and no file left.
func TestSortFailureEndsSpans(t *testing.T) {
	_, c, fact, _ := setup(t)
	dir := t.TempDir()
	rec := obs.New()
	restore := storage.SwapFS(faultfs.New().FailReadAfter(4096).ShortReads())
	_, err := Run(c, fact, Options{TempDir: dir, Recorder: rec})
	restore()
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if running := runningSpans(rec.Snapshot().Spans); len(running) != 0 {
		t.Errorf("spans still running after the run returned: %v", running)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("%d files left behind", len(entries))
	}
}
