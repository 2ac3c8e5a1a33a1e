package multipass

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/plan"
	"awra/internal/storage"
)

func schema3(t *testing.T) *model.Schema {
	t.Helper()
	s, err := model.NewSchema([]*model.Dimension{
		model.FixedFanout("A", 3, 10),
		model.FixedFanout("B", 3, 10),
		model.FixedFanout("C", 3, 10),
	}, "m")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func conflictingWorkflow(t *testing.T, s *model.Schema) *core.Compiled {
	t.Helper()
	all := model.LevelALL
	c, err := core.NewWorkflow(s).
		Basic("byA", model.Gran{0, all, all}, agg.Count, -1).
		Basic("byB", model.Gran{all, 0, all}, agg.Count, -1).
		Basic("byC", model.Gran{all, all, 0}, agg.Count, -1).
		Combine("total", []string{"byA"}, core.SumOf()).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlanPassesRespectsDependencies(t *testing.T) {
	s := schema3(t)
	c := conflictingWorkflow(t, s)
	st := &plan.Stats{BaseCard: []float64{1e6, 1e6, 1e6}}
	passes, err := PlanPasses(c, 5000, st)
	if err != nil {
		t.Fatal(err)
	}
	// Every basic measure assigned exactly once.
	seen := map[string]int{}
	for _, p := range passes {
		if len(p.Measures) == 0 {
			t.Error("empty pass planned")
		}
		if p.EstBytes > 5000*3 { // generous slack for the lone-measure case
			t.Errorf("pass estimate %v far above budget", p.EstBytes)
		}
		for _, m := range p.Measures {
			seen[m]++
		}
	}
	for _, name := range []string{"byA", "byB", "byC"} {
		if seen[name] != 1 {
			t.Errorf("measure %s assigned %d times", name, seen[name])
		}
	}
}

func TestPlanPassesNoBasics(t *testing.T) {
	s := schema3(t)
	// A workflow cannot exist without basic measures (composites need
	// sources), so exercise the error path directly with a doctored
	// compiled workflow is impossible via the public API; instead
	// verify single-pass planning works for a trivial workflow.
	c, err := core.NewWorkflow(s).Basic("x", s.AllGran(), agg.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	passes, err := PlanPasses(c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 1 || len(passes[0].Measures) != 1 {
		t.Fatalf("passes = %+v", passes)
	}
}

func TestRunCleansUpAndReports(t *testing.T) {
	s := schema3(t)
	c := conflictingWorkflow(t, s)
	rng := rand.New(rand.NewSource(3))
	recs := make([]model.Record, 500)
	for i := range recs {
		recs[i] = model.Record{
			Dims: []int64{rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000)},
			Ms:   []float64{float64(rng.Intn(5))},
		}
	}
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 3, 1, recs); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, scan.FileInput(fact), Options{
		EngineOptions: scan.EngineOptions{TempDir: dir},
		MemoryBudget:  4000,
		Stats:         &plan.Stats{BaseCard: []float64{1e6, 1e6, 1e6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Passes < 2 {
		t.Errorf("expected multiple passes, got %d", res.Stats.Passes)
	}
	// Each pass scans the whole file.
	if res.Stats.Records != res.Stats.Passes*500 {
		t.Errorf("records = %d across %d passes", res.Stats.Records, res.Stats.Passes)
	}
	// total must equal the count of all records.
	sum := 0.0
	for _, v := range res.Tables["total"].Rows {
		sum += v
	}
	if sum != 500 {
		t.Errorf("total sums to %v", sum)
	}
	if res.Stats.SortTime <= 0 || res.Stats.CombineTime < 0 {
		t.Errorf("timers: %+v", res.Stats)
	}
}

// TestRunPublishesHiddenBasesUnderTheirOwnNames: a pass evaluates a
// hidden base under the name the workflow gives it, so its node stats
// line up with the workflow's measures and no "hidden…" alias appears.
func TestRunPublishesHiddenBasesUnderTheirOwnNames(t *testing.T) {
	s := schema3(t)
	all := model.LevelALL
	c, err := core.NewWorkflow(s).
		Basic("byA1", model.Gran{1, all, all}, agg.Count, -1).
		FromParent("down", model.Gran{0, all, all}, "byA1", agg.Sum).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	var base string
	for _, m := range c.Measures {
		if m.Hidden {
			base = m.Name
		}
	}
	if base == "" {
		t.Fatal("workflow synthesized no hidden base")
	}
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	recs := []model.Record{{Dims: []int64{1, 2, 3}, Ms: []float64{1}}, {Dims: []int64{40, 2, 3}, Ms: []float64{1}}}
	if err := storage.WriteAll(fact, 3, 1, recs); err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	res, err := Run(c, scan.FileInput(fact), Options{EngineOptions: scan.EngineOptions{TempDir: dir, Recorder: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["down"].Rows) != 2 {
		t.Fatalf("down has %d rows, want 2", len(res.Tables["down"].Rows))
	}
	found := false
	for _, ns := range res.Stats.Nodes {
		if strings.HasPrefix(ns.Node, "hidden") {
			t.Errorf("node stats published under the alias %q", ns.Node)
		}
		found = found || (ns.Node == base && ns.CellsFinalized == 2)
	}
	if !found {
		t.Fatalf("no node stats for hidden base %q: %+v", base, res.Stats.Nodes)
	}
}
