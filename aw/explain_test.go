package aw_test

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/storage"
)

// profileWorkflow is a small rollup chain that every engine — including
// shardscan, whose measures nest in a t:Day-leading key — can evaluate.
func profileWorkflow(t *testing.T, s *aw.Schema) *aw.Workflow {
	t.Helper()
	gDayIP, err := s.MakeGran(map[string]string{"t": "Day", "U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	gDay, err := s.MakeGran(map[string]string{"t": "Day"})
	if err != nil {
		t.Fatal(err)
	}
	return aw.NewWorkflow(s).
		Basic("srcDay", gDayIP, aw.Count, -1).
		Rollup("dayCount", gDay, "srcDay", aw.Count)
}

// TestExplainAutoNamesTheEngineThatRuns: EngineAuto with Parallelism 2
// over in-memory records runs shardscan, as over a file; EXPLAIN must
// predict that, with the input and without it.
func TestExplainAutoNamesTheEngineThatRuns(t *testing.T) {
	s := attackSchema(t)
	gT, err := s.MakeGran(map[string]string{"t": "Second"})
	if err != nil {
		t.Fatal(err)
	}
	gU, err := s.MakeGran(map[string]string{"U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := aw.NewWorkflow(s).Basic("mT", gT, aw.Count, -1).Basic("mU", gU, aw.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	o := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineAuto, Parallelism: 2},
		TempDir:     t.TempDir(),
		BaseCards:   []float64{1.5e7, 1.5e7, 1, 1},
	}
	in := aw.FromRecords(attackRecords(3000, 24))
	predicted, err := aw.ExplainFor(c, in, o)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := aw.ExplainAnalyzeCompiled(context.Background(), c, in, o)
	if err != nil {
		t.Fatal(err)
	}
	if predicted.Engine != ran.Profile.Engine || predicted.Strategy != ran.Profile.Strategy {
		t.Fatalf("EXPLAIN predicted %s (%s), the run used %s (%s)",
			predicted.Engine, predicted.Strategy, ran.Profile.Engine, ran.Profile.Strategy)
	}
	if ran.Profile.Engine != "shardscan" {
		t.Fatalf("in-memory auto run used %s, want shardscan", ran.Profile.Engine)
	}
	if none, err := aw.Explain(c, o); err != nil || none.Engine != "shardscan" {
		t.Fatalf("Explain without input = %v (err %v), want shardscan", none, err)
	}
}

func TestExplainEstimates(t *testing.T) {
	s := attackSchema(t)
	c, err := profileWorkflow(t, s).Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := aw.Explain(c, aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan}})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Engine != "sortscan" || prof.SortKey == "" || prof.Analyzed {
		t.Fatalf("explain headline: %+v", prof)
	}
	if len(prof.Nodes) != 2 {
		t.Fatalf("want 2 nodes, got %d", len(prof.Nodes))
	}
	for _, n := range prof.Nodes {
		if !n.HasEstimate {
			t.Errorf("node %s missing estimate", n.Name)
		}
		if n.Actual != nil {
			t.Errorf("plain EXPLAIN must not carry actuals (%s)", n.Name)
		}
	}
	out := prof.String()
	for _, want := range []string{"engine sortscan", "sort key", "dayCount", "srcDay", "est_cells=", "- fact"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}

	// EngineAuto surfaces the Section 6 decision.
	prof, err = aw.Explain(c, aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineAuto}})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Strategy == "" {
		t.Errorf("auto explain should report the optimizer strategy: %+v", prof)
	}
	if _, err := json.Marshal(prof); err != nil {
		t.Fatalf("profile must serialize: %v", err)
	}
}

func TestExplainAnalyzeAllEngines(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(4000, 7)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	day := aw.Level(2) // Second -> Hour -> Day
	cases := []struct {
		name    string
		opts    aw.QueryOptions
		hasEst  bool // engine runs an optimizer/plan pass
		hasArcs bool // engine streams through watermark arcs
	}{
		{"sortscan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan}}, true, true},
		{"shardscan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineShardScan, Parallelism: 2}}, true, true},
		{"singlescan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan}}, true, false},
		{"multipass", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineMultiPass}}, true, true},
		// Shardscan with a caller-chosen partition unit, t:Day: the sort
		// key's leading part. The row keeps the name of the partitioned
		// engine this use case once needed.
		{"partscan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineShardScan, Parallelism: 2},
			SortKey: aw.SortKey{{Dim: 0, Lvl: day}}}, true, true},
		{"relational", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineRelational}}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.TempDir = dir
			c, err := profileWorkflow(t, s).Compile()
			if err != nil {
				t.Fatal(err)
			}
			r, err := aw.ExplainAnalyzeCompiled(context.Background(), c, aw.FromFile(fact), o)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Tables["dayCount"].Rows) == 0 {
				t.Fatal("empty result")
			}
			p := r.Profile
			if !p.Analyzed || p.Engine != tc.opts.Engine.String() {
				t.Fatalf("profile engine/analyzed: %+v", p)
			}
			var basic *aw.ProfileNode
			for i := range p.Nodes {
				n := &p.Nodes[i]
				if n.Actual == nil {
					t.Fatalf("node %s has no actuals", n.Name)
				}
				if n.Name == "srcDay" {
					basic = n
				}
			}
			if basic == nil {
				t.Fatal("basic node missing")
			}
			// Every engine scans the whole file exactly once into the
			// basic measure (shards/passes merge their counts).
			if basic.Actual.RecordsIn != int64(len(recs)) {
				t.Errorf("basic records in: got %d, want %d", basic.Actual.RecordsIn, len(recs))
			}
			if basic.Actual.CellsFinalized == 0 {
				t.Errorf("basic cells finalized missing: %+v", basic.Actual)
			}
			if tc.hasEst && !basic.HasEstimate {
				t.Errorf("engine %s should carry optimizer estimates", tc.name)
			}
			if tc.hasArcs {
				if len(basic.Actual.Arcs) == 0 || basic.Actual.Arcs[0].Advances == 0 {
					t.Errorf("basic watermark arcs missing: %+v", basic.Actual)
				}
			}
			// The rendered tree shows estimate and actual columns side
			// by side.
			out := p.String()
			if !strings.Contains(out, "actual:") {
				t.Errorf("rendered profile missing actuals:\n%s", out)
			}
		})
	}
}

func TestInflightQueryAppearsAndDisappears(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(250000, 9)
	w := profileWorkflow(t, s)

	done := make(chan error, 1)
	go func() {
		_, err := aw.Run(context.Background(), w, aw.FromRecords(recs))
		done <- err
	}()

	var seen []aw.QuerySnapshot
	var qid int64
poll:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			break poll
		default:
			for _, q := range aw.InflightQueries() {
				if strings.Contains(q.Label, "dayCount") {
					if qid == 0 {
						qid = q.ID
					}
					if q.ID == qid {
						seen = append(seen, q)
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	if len(seen) == 0 {
		t.Fatal("running query never appeared in InflightQueries")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Progress < seen[i-1].Progress {
			t.Fatalf("progress regressed: %v -> %v", seen[i-1].Progress, seen[i].Progress)
		}
		if seen[i].ElapsedUs < seen[i-1].ElapsedUs {
			t.Fatalf("elapsed regressed")
		}
	}
	last := seen[len(seen)-1]
	if last.ID == 0 {
		t.Error("query snapshot missing ID")
	}
	// Completed queries leave the registry.
	for _, q := range aw.InflightQueries() {
		if q.ID == qid {
			t.Fatal("finished query still registered")
		}
	}
}
