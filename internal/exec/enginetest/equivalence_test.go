package enginetest

import (
	"fmt"
	"path/filepath"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/model"
	"awra/internal/storage"
)

// runSingle evaluates via the single-scan engine (the oracle).
func runSingle(t *testing.T, c *core.Compiled, recs []model.Record, opts singlescan.Options) map[string]*core.Table {
	t.Helper()
	res, err := singlescan.Run(c, memInput(t, c, recs), opts)
	if err != nil {
		t.Fatalf("singlescan: %v", err)
	}
	return res.Tables
}

// runSort evaluates via the streaming sort/scan engine under a sort key.
func runSort(t *testing.T, c *core.Compiled, recs []model.Record, key model.SortKey) map[string]*core.Table {
	t.Helper()
	res, err := sortscan.Run(c, memInput(t, c, recs), sortscan.Options{SortKey: key})
	if err != nil {
		t.Fatalf("sortscan: %v", err)
	}
	return res.Tables
}

// runAlgebra evaluates via the in-memory AW-RA reference evaluator.
func runAlgebra(t *testing.T, c *core.Compiled, recs []model.Record) map[string]*core.Table {
	t.Helper()
	out := map[string]*core.Table{}
	for _, name := range c.Outputs() {
		e, err := core.Translate(c, name)
		if err != nil {
			t.Fatalf("translate %s: %v", name, err)
		}
		tbl, err := core.Eval(e, recs)
		if err != nil {
			t.Fatalf("eval %s: %v", name, err)
		}
		out[name] = tbl
	}
	return out
}

func diffTables(a, b map[string]*core.Table, eps float64) string {
	for name, ta := range a {
		tb, ok := b[name]
		if !ok {
			return fmt.Sprintf("measure %s missing", name)
		}
		if !ta.Equal(tb, eps) {
			return fmt.Sprintf("measure %s differs: %d vs %d rows", name, len(ta.Rows), len(tb.Rows))
		}
	}
	if len(a) != len(b) {
		return "different measure sets"
	}
	return ""
}

func describe(tbl *core.Table) map[string]float64 {
	out := map[string]float64{}
	for k, v := range tbl.Rows {
		out[tbl.Codec.Format(k)] = v
	}
	return out
}

// TestSortScanMatchesSingleScanRandomized is the load-bearing
// correctness test: random workflows over random data, evaluated by
// the algebra evaluator (the oracle), single-scan, and sort/scan under
// several random sort keys — all must agree exactly.
func TestSortScanMatchesSingleScanRandomized(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		g := NewGen(int64(1000+trial), 2+trial%3)
		c, err := g.Workflow(1+g.Rng.Intn(3), 1+g.Rng.Intn(4))
		if err != nil {
			t.Fatalf("trial %d: workflow: %v", trial, err)
		}
		recs := g.Records(100 + g.Rng.Intn(400))

		want := runAlgebra(t, c, recs)
		single := runSingle(t, c, recs, singlescan.Options{})
		if d := diffTables(single, want, 1e-9); d != "" {
			t.Fatalf("trial %d: singlescan vs algebra: %s", trial, d)
		}

		for ki := 0; ki < 4; ki++ {
			key := g.RandSortKey()
			got := runSort(t, c, recs, key)
			if d := diffTables(want, got, 1e-9); d != "" {
				for name := range want {
					if !want[name].Equal(got[name], 1e-9) {
						t.Logf("measure %s\n  want %v\n  got  %v", name, describe(want[name]), describe(got[name]))
					}
				}
				t.Fatalf("trial %d key %v (%s): sortscan vs algebra: %s",
					trial, ki, model.SortKey(key).String(c.Schema), d)
			}
		}
	}
}

// TestDeepChains exercises long sibling chains (the paper's Q2 shape)
// and deep rollup chains.
func TestDeepChains(t *testing.T) {
	g := NewGen(7, 2)
	w := core.NewWorkflow(g.Schema)
	w.Basic("b", model.Gran{0, model.LevelALL}, agg.Count, -1)
	prev := "b"
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("s%d", i)
		w.Sliding(name, prev, agg.Avg, []core.Window{{Dim: 0, Lo: -1, Hi: 1}})
		prev = name
	}
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(300)
	want := runSingle(t, c, recs, singlescan.Options{})
	alg := runAlgebra(t, c, recs)
	if d := diffTables(want, alg, 1e-9); d != "" {
		t.Fatalf("singlescan vs algebra: %s", d)
	}
	for _, key := range []model.SortKey{
		{{Dim: 0, Lvl: 0}},
		{{Dim: 0, Lvl: 1}, {Dim: 1, Lvl: 0}},
		{{Dim: 1, Lvl: 0}, {Dim: 0, Lvl: 0}},
	} {
		got := runSort(t, c, recs, key)
		if d := diffTables(want, got, 1e-9); d != "" {
			t.Fatalf("key %s: %s", key.String(c.Schema), d)
		}
	}
}

// TestDiamondDependencies exercises the S_max example of Section 5.3.3:
// two rollup chains combined at the top.
func TestDiamondDependencies(t *testing.T) {
	g := NewGen(9, 3)
	w := core.NewWorkflow(g.Schema)
	w.Basic("s1", model.Gran{1, 0, model.LevelALL}, agg.Count, -1)
	w.Basic("s2", model.Gran{1, model.LevelALL, 0}, agg.Count, -1)
	w.Rollup("max1", model.Gran{1, model.LevelALL, model.LevelALL}, "s1", agg.Max)
	w.Rollup("max2", model.Gran{1, model.LevelALL, model.LevelALL}, "s2", agg.Max)
	w.Combine("smax", []string{"max1", "max2"}, core.MaxOf())
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(400)
	want := runSingle(t, c, recs, singlescan.Options{})
	for _, key := range []model.SortKey{
		{{Dim: 0, Lvl: 1}, {Dim: 2, Lvl: 0}},
		{{Dim: 0, Lvl: 0}},
		{{Dim: 1, Lvl: 2}, {Dim: 0, Lvl: 1}},
	} {
		got := runSort(t, c, recs, key)
		if d := diffTables(want, got, 1e-9); d != "" {
			t.Fatalf("key %s: %s", key.String(c.Schema), d)
		}
	}
}

// TestParentChildRatio is the Section 5.3.1 S_ratio example: a
// fine-grained measure divided by its parent's value, which forces the
// parent/child staging path.
func TestParentChildRatio(t *testing.T) {
	g := NewGen(11, 2)
	w := core.NewWorkflow(g.Schema)
	w.Basic("s2", model.Gran{0, model.LevelALL}, agg.Count, -1)
	w.Rollup("s1", model.Gran{1, model.LevelALL}, "s2", agg.Sum)
	w.FromParent("parent", model.Gran{0, model.LevelALL}, "s1", agg.Sum)
	w.Combine("ratio", []string{"s2", "parent"}, core.Ratio(0, 1))
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(500)
	want := runSingle(t, c, recs, singlescan.Options{})
	alg := runAlgebra(t, c, recs)
	if d := diffTables(want, alg, 1e-9); d != "" {
		t.Fatalf("singlescan vs algebra: %s", d)
	}
	for _, key := range []model.SortKey{
		{{Dim: 0, Lvl: 0}},
		{{Dim: 0, Lvl: 1}},
		{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 0}},
		{{Dim: 1, Lvl: 0}},
	} {
		got := runSort(t, c, recs, key)
		if d := diffTables(want, got, 1e-9); d != "" {
			t.Fatalf("key %s: %s", key.String(c.Schema), d)
		}
	}
}

// TestBudgetedSingleScanMatches: the spilling out-of-core path must
// produce identical results to the unbudgeted run.
func TestBudgetedSingleScanMatches(t *testing.T) {
	g := NewGen(13, 2)
	c, err := g.Workflow(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(800)
	want := runSingle(t, c, recs, singlescan.Options{})
	dir := t.TempDir()
	got, err := singlescan.Run(c, memInput(t, c, recs), singlescan.Options{
		EngineOptions: scan.EngineOptions{TempDir: dir}, MemoryBudget: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Spills == 0 {
		t.Fatal("budget did not trigger spilling; test is vacuous")
	}
	if d := diffTables(want, got.Tables, 1e-9); d != "" {
		t.Fatalf("budgeted vs unbudgeted: %s", d)
	}
}

// TestSortScanFromFile runs the full path including the external sort.
func TestSortScanFromFile(t *testing.T) {
	g := NewGen(17, 2)
	c, err := g.Workflow(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(600)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, g.Schema.NumDims(), 1, recs); err != nil {
		t.Fatal(err)
	}
	want := runSingle(t, c, recs, singlescan.Options{})
	res, err := sortscan.Run(c, scan.FileInput(fact), sortscan.Options{
		EngineOptions: scan.EngineOptions{TempDir: dir, ChunkRecords: 100},
		SortKey:       model.SortKey{{Dim: 0, Lvl: 1}, {Dim: 1, Lvl: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTables(want, res.Tables, 1e-9); d != "" {
		t.Fatalf("file path: %s", d)
	}
	if res.Stats.Records != 600 {
		t.Errorf("records = %d", res.Stats.Records)
	}
	if res.Stats.PeakCells <= 0 {
		t.Error("no live-cell accounting")
	}
}

// TestEarlyFlushingBoundsMemory verifies the point of the sort/scan
// algorithm: under a helpful sort key, peak live cells stay far below
// the total number of produced regions.
func TestEarlyFlushingBoundsMemory(t *testing.T) {
	g := NewGen(19, 2)
	w := core.NewWorkflow(g.Schema)
	w.Basic("cnt", model.Gran{0, 0}, agg.Count, -1)
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(4000)
	got := runSort(t, c, recs, model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}})
	total := len(got["cnt"].Rows)

	res, err := sortscan.Run(c, memInput(t, c, recs), sortscan.Options{SortKey: model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakCells > int64(total)/10 {
		t.Errorf("peak cells %d vs %d total regions: early flushing ineffective", res.Stats.PeakCells, total)
	}
}

// TestSiblingLagWindows exercises forward-looking windows (Hi > 0),
// which force the slack shift machinery.
func TestSiblingLagWindows(t *testing.T) {
	g := NewGen(23, 2)
	w := core.NewWorkflow(g.Schema)
	w.Basic("cnt", model.Gran{0, model.LevelALL}, agg.Count, -1)
	w.Sliding("fwd", "cnt", agg.Sum, []core.Window{{Dim: 0, Lo: 1, Hi: 5}})
	w.Sliding("back", "cnt", agg.Sum, []core.Window{{Dim: 0, Lo: -5, Hi: -1}})
	w.Sliding("both", "cnt", agg.Sum, []core.Window{{Dim: 0, Lo: -3, Hi: 3}})
	w.Combine("net", []string{"fwd", "back"}, core.Diff(0, 1))
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(500)
	want := runSingle(t, c, recs, singlescan.Options{})
	alg := runAlgebra(t, c, recs)
	if d := diffTables(want, alg, 1e-9); d != "" {
		t.Fatalf("singlescan vs algebra: %s", d)
	}
	for _, key := range []model.SortKey{
		{{Dim: 0, Lvl: 0}},
		{{Dim: 0, Lvl: 1}},
		{{Dim: 0, Lvl: 2}},
		{{Dim: 1, Lvl: 0}, {Dim: 0, Lvl: 0}},
	} {
		got := runSort(t, c, recs, key)
		if d := diffTables(want, got, 1e-9); d != "" {
			t.Fatalf("key %s: %s", key.String(c.Schema), d)
		}
	}
}

// TestEmptyDataset: every engine must handle zero records.
func TestEmptyDataset(t *testing.T) {
	g := NewGen(29, 2)
	c, err := g.Workflow(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := runSingle(t, c, nil, singlescan.Options{})
	got := runSort(t, c, nil, model.SortKey{{Dim: 0, Lvl: 0}})
	if d := diffTables(want, got, 0); d != "" {
		t.Fatalf("empty dataset: %s", d)
	}
	for name, tbl := range want {
		if len(tbl.Rows) != 0 {
			t.Errorf("measure %s has %d rows on empty input", name, len(tbl.Rows))
		}
	}
}
