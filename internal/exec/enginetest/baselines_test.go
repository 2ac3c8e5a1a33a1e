package enginetest

import (
	"math/rand"
	"path/filepath"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/multipass"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/model"
	"awra/internal/plan"
	"awra/internal/relbaseline"
	"awra/internal/storage"
)

// writeFact materializes generated records as a fact file.
func writeFact(t *testing.T, g *Gen, recs []model.Record) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(path, g.Schema.NumDims(), 1, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// memInput is the in-memory input of generated records, in c's shape.
func memInput(t *testing.T, c *core.Compiled, recs []model.Record) scan.Input {
	t.Helper()
	in, err := scan.RecordsInput(recs, c.Schema.NumDims(), c.Schema.NumMeasures())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRelBaselineMatchesSingleScan: the relational comparator must be
// a correct evaluator too — otherwise benchmark comparisons are
// meaningless. The reference evaluator is the oracle.
func TestRelBaselineMatchesSingleScan(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		g := NewGen(int64(5000+trial), 2+trial%2)
		c, err := g.Workflow(1+g.Rng.Intn(3), 1+g.Rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		recs := g.Records(150 + g.Rng.Intn(300))
		fact := writeFact(t, g, recs)
		want := runAlgebra(t, c, recs)
		got, err := relbaseline.Run(c, scan.FileInput(fact), relbaseline.Options{TempDir: filepath.Dir(fact)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := diffTables(want, got.Tables, 1e-9); d != "" {
			t.Fatalf("trial %d: relbaseline vs algebra: %s", trial, d)
		}
		if got.Stats.FactScans == 0 {
			t.Error("baseline claims zero fact scans")
		}
	}
}

// TestMultiPassMatchesSingleScan: the multi-pass executor must agree
// with the reference evaluator regardless of how small the per-pass
// budget is.
func TestMultiPassMatchesSingleScan(t *testing.T) {
	trials := 15
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		g := NewGen(int64(7000+trial), 2)
		c, err := g.Workflow(2+g.Rng.Intn(2), 1+g.Rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		recs := g.Records(200 + g.Rng.Intn(200))
		fact := writeFact(t, g, recs)
		want := runAlgebra(t, c, recs)
		for _, budget := range []float64{0, 1e9, 2000, 100} {
			got, err := multipass.Run(c, scan.FileInput(fact), multipass.Options{
				EngineOptions: scan.EngineOptions{TempDir: filepath.Dir(fact)},
				MemoryBudget:  budget,
			})
			if err != nil {
				t.Fatalf("trial %d budget %v: %v", trial, budget, err)
			}
			if d := diffTables(want, got.Tables, 1e-9); d != "" {
				t.Fatalf("trial %d budget %v: multipass vs algebra: %s", trial, budget, d)
			}
		}
	}
}

// TestCalendarHierarchyEquivalence runs the engines over the real
// network schema, whose time hierarchy is irregular (28-31 days per
// month): sibling windows over days that cross month boundaries
// exercise the MinFanout-based watermark shifts.
func TestCalendarHierarchyEquivalence(t *testing.T) {
	s, err := model.NewSchema([]*model.Dimension{
		model.TimeDimension("t"),
		model.IPv4Dimension("T"),
	})
	if err != nil {
		t.Fatal(err)
	}
	day, _ := s.Dim(0).LevelByName("Day")
	month, _ := s.Dim(0).LevelByName("Month")
	sub24, _ := s.Dim(1).LevelByName("/24")
	all := model.LevelALL

	rng := rand.New(rand.NewSource(77))
	recs := make([]model.Record, 3000)
	for i := range recs {
		// Span a Feb->Mar leap-year boundary to stress the calendar.
		d := model.DayCode(2004, 2, 20) + rng.Int63n(20)
		recs[i] = model.Record{Dims: []int64{
			d*86400 + rng.Int63n(86400),
			model.IPCode(10, 0, int(rng.Int63n(6)), int(rng.Int63n(50))),
		}, Ms: []float64{}}
	}

	gDaySub, _ := s.Normalize(model.Gran{day, sub24})
	gDay, _ := s.Normalize(model.Gran{day, all})
	gMonth, _ := s.Normalize(model.Gran{month, all})
	c, err := core.NewWorkflow(s).
		Basic("perDaySub", gDaySub, agg.Count, -1).
		Rollup("perDay", gDay, "perDaySub", agg.Sum).
		Rollup("perMonth", gMonth, "perDay", agg.Sum).
		FromParent("monthOfDay", gDay, "perMonth", agg.Sum).
		Combine("dayShare", []string{"perDay", "monthOfDay"}, core.Ratio(0, 1)).
		Sliding("weekAhead", "perDay", agg.Sum, []core.Window{{Dim: 0, Lo: 1, Hi: 7}}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}

	want := runSingle(t, c, recs, singlescan.Options{})
	alg := runAlgebra(t, c, recs)
	if d := diffTables(want, alg, 1e-9); d != "" {
		t.Fatalf("singlescan vs algebra: %s", d)
	}
	hour, _ := s.Dim(0).LevelByName("Hour")
	for _, key := range []model.SortKey{
		{{Dim: 0, Lvl: day}},
		{{Dim: 0, Lvl: month}, {Dim: 1, Lvl: 0}},
		{{Dim: 0, Lvl: hour}},
		{{Dim: 0, Lvl: 0}},
		{{Dim: 1, Lvl: sub24}, {Dim: 0, Lvl: day}},
	} {
		got := runSort(t, c, recs, key)
		if d := diffTables(want, got, 1e-9); d != "" {
			t.Fatalf("key %s: %s", key.String(s), d)
		}
	}
}

// TestEstimateTracksActual: the footprint estimator that drives the
// optimizer must rank sort keys the same way the engine's measured
// peak does, and be within an order of magnitude on uniform data.
func TestEstimateTracksActual(t *testing.T) {
	s, err := model.NewSchema([]*model.Dimension{
		model.FixedFanout("A", 3, 10),
		model.FixedFanout("B", 3, 10),
	}, "m")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewWorkflow(s).
		Basic("cnt", model.Gran{0, 0}, agg.Count, -1).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	recs := make([]model.Record, 30000)
	for i := range recs {
		recs[i] = model.Record{Dims: []int64{rng.Int63n(1000), rng.Int63n(1000)}, Ms: []float64{0}}
	}
	st := &plan.Stats{BaseCard: []float64{1000, 1000}, Records: 30000}
	type outcome struct {
		est, actual float64
	}
	var results []outcome
	for _, key := range []model.SortKey{
		{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}, // covers everything
		{{Dim: 0, Lvl: 1}},                   // partial
		{{Dim: 0, Lvl: 2}},                   // coarse
	} {
		pl, err := plan.Build(c, key, st)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sortscan.Run(c, memInput(t, c, recs), sortscan.Options{SortKey: key, Stats: st})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, outcome{pl.Nodes[0].EstCells, float64(res.Stats.PeakCells)})
	}
	for i := 1; i < len(results); i++ {
		if (results[i].est > results[i-1].est) != (results[i].actual >= results[i-1].actual) {
			t.Errorf("estimator mis-ranks keys: %+v", results)
		}
	}
	for _, r := range results {
		// The engine batches finalization by the leading key
		// component, so actuals can exceed the immediate-flush
		// estimate by roughly a group's worth; allow that headroom.
		if r.actual > 0 && (r.est > 20*r.actual || r.actual > 64*r.est) {
			t.Errorf("estimate %v vs actual %v beyond tolerance", r.est, r.actual)
		}
	}
}

// TestMultiPassSplitsPasses: with a tight budget and measures wanting
// different sort orders, the planner must actually produce multiple
// passes.
func TestMultiPassSplitsPasses(t *testing.T) {
	g := NewGen(31, 3)
	w := core.NewWorkflow(g.Schema)
	w.Basic("byX0", model.Gran{0, model.LevelALL, model.LevelALL}, 0, -1)
	w.Basic("byX1", model.Gran{model.LevelALL, 0, model.LevelALL}, 0, -1)
	w.Basic("byX2", model.Gran{model.LevelALL, model.LevelALL, 0}, 0, -1)
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := &plan.Stats{BaseCard: []float64{1e6, 1e6, 1e6}}
	passes, err := multipass.PlanPasses(c, 10_000, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 2 {
		t.Errorf("expected multiple passes under a tight budget, got %d", len(passes))
	}
	total := 0
	for _, p := range passes {
		total += len(p.Measures)
	}
	if total != 3 {
		t.Errorf("passes cover %d measures, want 3", total)
	}
	// Unlimited budget: one pass.
	passes, err = multipass.PlanPasses(c, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 1 {
		t.Errorf("unlimited budget should plan one pass, got %d", len(passes))
	}
}
