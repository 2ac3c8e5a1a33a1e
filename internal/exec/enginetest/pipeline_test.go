package enginetest

import (
	"path/filepath"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/storage"
)

// runBatchedEngines evaluates the workflow through every file-backed
// engine on the batched zero-copy pipeline and requires each result to
// be bit-identical (eps 0) to the seed decoder's: the tables computed
// from the same file read row-at-a-time through storage.Open and
// evaluated by the reference algebra evaluator.
func runBatchedEngines(t *testing.T, c *core.Compiled, fact string, key model.SortKey) {
	t.Helper()
	dir := filepath.Dir(fact)

	// Oracle: the seed row-at-a-time decoder feeding the in-memory
	// reference evaluator — no batched reads anywhere on this path.
	recs, _, err := storage.ReadAll(fact)
	if err != nil {
		t.Fatal(err)
	}
	want := runAlgebra(t, c, recs)

	in := scan.FileInput(fact)
	so := sortscan.Options{EngineOptions: scan.EngineOptions{TempDir: dir}, SortKey: key}
	ss, err := sortscan.Run(c, in, so)
	if err != nil {
		t.Fatalf("sortscan: %v", err)
	}
	if d := diffTables(want, ss.Tables, 0); d != "" {
		t.Fatalf("sortscan vs seed decoder: %s", d)
	}

	sg, err := singlescan.Run(c, in, singlescan.Options{EngineOptions: so.EngineOptions})
	if err != nil {
		t.Fatalf("singlescan: %v", err)
	}
	if d := diffTables(want, sg.Tables, 0); d != "" {
		t.Fatalf("singlescan vs seed decoder: %s", d)
	}

	sh, err := sortscan.RunSharded(c, in, shardOpts(so.SortKey, 3, so.EngineOptions))
	if err != nil {
		t.Fatalf("shardscan: %v", err)
	}
	if d := diffTables(want, sh.Tables, 0); d != "" {
		t.Fatalf("shardscan vs seed decoder: %s", d)
	}
}

// TestBatchedPipelineMatchesSeedDecoderSynthCube: the zero-copy
// batched pipeline against the reference evaluator on the uniform
// synthetic cube, over a mixed workflow (filters, rollups, combine).
func TestBatchedPipelineMatchesSeedDecoderSynthCube(t *testing.T) {
	fact, s := synthCube(t, 20000, 2006)
	all := model.LevelALL
	w := core.NewWorkflow(s)
	w.Basic("fine", model.Gran{1, 0, all, all}, agg.Count, -1)
	w.Basic("valsum", model.Gran{2, all, 0, all}, agg.Sum, 0)
	w.Basic("filtered", model.Gran{1, 0, all, all}, agg.Count, -1, core.Where(core.MWhere(0, core.Gt, 2)))
	w.Rollup("perRegion", model.Gran{2, all, all, all}, "fine", agg.Count)
	w.Rollup("hot", model.Gran{2, 0, all, all}, "fine", agg.Count, core.Where(core.MWhere(0, core.Ge, 3)))
	w.Combine("share", []string{"fine", "filtered"}, core.SumOf())
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	runBatchedEngines(t, c, fact, model.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 0}})
}

// TestBatchedPipelineMatchesSeedDecoderAttackLog: same check over the
// skewed network attack log (the paper's monitoring domain).
func TestBatchedPipelineMatchesSeedDecoderAttackLog(t *testing.T) {
	fact := filepath.Join(t.TempDir(), "net.rec")
	s, _, err := gen.NetLog(fact, 30000, gen.NetConfig{Days: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hour, err := s.Dim(0).LevelByName("Hour")
	if err != nil {
		t.Fatal(err)
	}
	day, err := s.Dim(0).LevelByName("Day")
	if err != nil {
		t.Fatal(err)
	}
	all := model.LevelALL
	w := core.NewWorkflow(s)
	w.Basic("traffic", model.Gran{hour, all, 1, all}, agg.Count, -1)
	w.Rollup("busy", model.Gran{hour, all, all, all}, "traffic", agg.Count, core.Where(core.MWhere(0, core.Gt, 2)))
	w.Basic("srcActivity", model.Gran{day, 0, 1, all}, agg.Count, -1)
	w.Rollup("fanIn", model.Gran{day, all, 1, all}, "srcActivity", agg.Count)
	w.Rollup("sweeps", model.Gran{day, all, all, all}, "fanIn", agg.Count, core.Where(core.MWhere(0, core.Ge, 10)))
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	runBatchedEngines(t, c, fact, model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}, {Dim: 1, Lvl: 0}})
}
