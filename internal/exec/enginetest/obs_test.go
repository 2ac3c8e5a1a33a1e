package enginetest

import (
	"context"
	"path/filepath"
	"testing"

	"awra/aw"
	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/multipass"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/relbaseline"
)

// obsWorkflow builds a small fixed workflow that every engine —
// including shardscan, whose measures must nest inside the units of the
// sort key's leading part or merge across them — can evaluate: a
// base-granularity count rolled up along dimension 1.
func obsWorkflow(t *testing.T, g *Gen) *core.Compiled {
	t.Helper()
	sch := g.Schema
	base := make(model.Gran, sch.NumDims())
	roll := make(model.Gran, sch.NumDims())
	roll[1] = 1 // one level up dimension 1's hierarchy
	w := core.NewWorkflow(sch).
		Basic("cnt", base, agg.Count, -1).
		Rollup("roll", roll, "cnt", agg.Sum)
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSortScanEmitsMetrics pins the tentpole contract on a golden
// workflow: a sort/scan run must report every record it consumed and
// every cell it flushed in the stats it returns, and leave publishing
// them to its caller.
func TestSortScanEmitsMetrics(t *testing.T) {
	g := NewGen(42, 2)
	c := obsWorkflow(t, g)
	recs := g.Records(500)
	fact := writeFact(t, g, recs)

	rec := obs.New()
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}
	res, err := sortscan.Run(c, scan.FileInput(fact), sortscan.Options{
		EngineOptions: scan.EngineOptions{TempDir: filepath.Dir(fact), Recorder: rec}, SortKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Records; got != int64(len(recs)) {
		t.Errorf("records_scanned = %d, want %d", got, len(recs))
	}
	if res.Stats.CellsFinalized == 0 {
		t.Error("cells_finalized = 0, want > 0")
	}
	if res.Stats.CellsCreated == 0 {
		t.Error("cells_created = 0, want > 0")
	}
	if res.Stats.PeakCells == 0 {
		t.Error("live_cells_hwm = 0, want > 0")
	}
	if len(res.Stats.Nodes) != len(c.Measures) {
		t.Errorf("%d node stats, want one per measure (%d)", len(res.Stats.Nodes), len(c.Measures))
	}
	snap := rec.Snapshot()
	if len(snap.Counters)+len(snap.Gauges) != 0 {
		t.Errorf("the engine published numbers itself: %v, %v", snap.Counters, snap.Gauges)
	}
	// Span tree: sort and scan phases must be present and ended.
	names := map[string]bool{}
	for _, s := range snap.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{obs.SpanSort, obs.SpanScan, obs.SpanFinalize} {
		if !names[want] {
			t.Errorf("span %q missing from tree %v", want, names)
		}
	}
}

// TestQuerySpanBoundsPhases: through the public API, the phase spans
// must nest under one "query" span whose duration bounds their sum
// (the -trace invariant).
func TestQuerySpanBoundsPhases(t *testing.T) {
	g := NewGen(43, 2)
	c := obsWorkflow(t, g)
	recs := g.Records(800)
	fact := writeFact(t, g, recs)

	rec := aw.NewRecorder()
	_, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan, Recorder: rec},
		TempDir:     filepath.Dir(fact),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != obs.SpanQuery {
		t.Fatalf("want a single query root span, got %+v", snap.Spans)
	}
	q := snap.Spans[0]
	if len(q.Children) == 0 {
		t.Fatal("query span has no phase children")
	}
	var sum int64
	for _, ch := range q.Children {
		sum += ch.DurationUs
	}
	if sum > q.DurationUs {
		t.Errorf("phase durations sum to %dus, exceeding query span %dus", sum, q.DurationUs)
	}
}

// engineRun runs one engine over in under the given engine options.
type engineRun func(c *core.Compiled, in scan.Input, eo scan.EngineOptions) (*scan.Result, error)

// obsEngines is every batch engine, shardscan at two workers, as they
// run obsWorkflow sorted by key.
func obsEngines(key model.SortKey) map[string]engineRun {
	return map[string]engineRun{
		"sortscan": func(c *core.Compiled, in scan.Input, eo scan.EngineOptions) (*scan.Result, error) {
			return sortscan.Run(c, in, sortscan.Options{EngineOptions: eo, SortKey: key})
		},
		"shardscan": func(c *core.Compiled, in scan.Input, eo scan.EngineOptions) (*scan.Result, error) {
			return sortscan.RunSharded(c, in, shardOpts(key, 2, eo))
		},
		"singlescan": func(c *core.Compiled, in scan.Input, eo scan.EngineOptions) (*scan.Result, error) {
			return singlescan.Run(c, in, singlescan.Options{EngineOptions: eo})
		},
		"multipass": func(c *core.Compiled, in scan.Input, eo scan.EngineOptions) (*scan.Result, error) {
			return multipass.Run(c, in, multipass.Options{EngineOptions: eo})
		},
		"relational": func(c *core.Compiled, in scan.Input, eo scan.EngineOptions) (*scan.Result, error) {
			return relbaseline.Run(c, in, eo)
		},
	}
}

// vocabulary pairs each metric a run publishes with the stats field
// mirroring it: counters first, then the gauges.
func vocabulary(st obs.EngineStats) (counters, gauges map[string]int64) {
	return map[string]int64{
			obs.MRecordsScanned:    st.Records,
			obs.MFactScans:         st.FactScans,
			obs.MPasses:            st.Passes,
			obs.MCellsCreated:      st.CellsCreated,
			obs.MCellsFinalized:    st.CellsFinalized,
			obs.MFlushBatches:      st.FlushBatches,
			obs.MWatermarkAdvances: st.WatermarkAdvances,
			obs.MSpillEvents:       st.Spills,
			obs.MSpillBytes:        st.SpillBytes,
			obs.MSpilledEntries:    st.SpilledEntries,
			obs.MSortRuns:          st.SortRuns,
			obs.MScanChunks:        st.ScanChunks,
			obs.MScanBytes:         st.ScanBytes,
			obs.MCellTableGrows:    st.CellGrows,
			obs.MShardsPlanned:     st.ShardsPlanned,
			obs.MHeapComparisons:   st.HeapComparisons,
		}, map[string]int64{
			obs.GLiveCellsHWM:   st.PeakCells,
			obs.GHashBytesHWM:   st.PeakBytes,
			obs.GScanBatchFill:  st.FillPermille(),
			obs.GCellProbeHWM:   st.CellProbeHWM,
			obs.GCellArenaBytes: st.CellArenaBytes,
			obs.GShardSkew:      st.ShardSkew,
		}
}

// awEngines is every batch engine as aw.RunCompiled runs obsWorkflow,
// shardscan at two workers, sorting by key where the engine sorts.
func awEngines(key model.SortKey, dir string) map[string]aw.QueryOptions {
	out := map[string]aw.QueryOptions{}
	for _, e := range []aw.Engine{aw.EngineSortScan, aw.EngineShardScan, aw.EngineSingleScan, aw.EngineMultiPass, aw.EngineRelational} {
		o := aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: e}, SortKey: key, TempDir: dir}
		if e == aw.EngineShardScan {
			o.Parallelism = 2
		}
		out[e.String()] = o
	}
	return out
}

// TestEnginesShareMetricVocabulary: every engine, run through the
// public API, must publish every engine metric for the same workload,
// so snapshots are comparable across evaluators.
func TestEnginesShareMetricVocabulary(t *testing.T) {
	g := NewGen(44, 2)
	c := obsWorkflow(t, g)
	recs := g.Records(600)
	fact := writeFact(t, g, recs)
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}
	counters, gauges := vocabulary(obs.EngineStats{})
	for name, o := range awEngines(key, filepath.Dir(fact)) {
		rec := obs.New()
		o.Recorder = rec
		if _, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := rec.Snapshot()
		for m := range counters {
			if _, ok := snap.Counters[m]; !ok {
				t.Errorf("%s: counter %q missing from snapshot (have %v)", name, m, snap.Counters)
			}
		}
		for m := range gauges {
			if _, ok := snap.Gauges[m]; !ok {
				t.Errorf("%s: gauge %q missing from snapshot (have %v)", name, m, snap.Gauges)
			}
		}
		if got := snap.Counters[obs.MRecordsScanned]; got < int64(len(recs)) {
			t.Errorf("%s: records_scanned = %d, want >= %d", name, got, len(recs))
		}
		if snap.Counters[obs.MCellsFinalized] == 0 {
			t.Errorf("%s: cells_finalized = 0, want > 0", name)
		}
	}
}

// TestEngineStatsMirrorMetrics: every engine's history line carries
// field for field the stats its run published into a fresh recorder,
// and the per-node actuals of the run's own stats — shardscan's
// high-water marks are its largest worker's, and a budgeted
// single-scan's spill counts include the run files of its spill merge.
func TestEngineStatsMirrorMetrics(t *testing.T) {
	g := NewGen(45, 2)
	c := obsWorkflow(t, g)
	fact := writeFact(t, g, g.Records(6000))
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}
	runs := awEngines(key, filepath.Dir(fact))
	budget := runs["singlescan"]
	budget.MemoryBudget = 2000
	runs["singlescan-budget"] = budget
	for name, o := range runs {
		h, err := aw.OpenHistory(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New()
		o.Recorder, o.History = rec, h
		res, err := aw.ExplainAnalyzeCompiled(context.Background(), c, aw.FromFile(fact), o)
		h.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := h.Recent(1)[0]
		snap := rec.Snapshot()
		counters, gauges := vocabulary(r.EngineStats)
		for m, v := range counters {
			if got := snap.Counters[m]; got != v {
				t.Errorf("%s: the history line gives %s = %d, the recorder %d", name, m, v, got)
			}
		}
		for m, v := range gauges {
			if got := snap.Gauges[m]; got != v {
				t.Errorf("%s: the history line gives %s = %d, the recorder %d", name, m, v, got)
			}
		}
		actual := res.Profile.Stats.NodeTotals()
		if len(r.Nodes) != len(c.Measures) {
			t.Errorf("%s: the history line has %d node profiles, want %d", name, len(r.Nodes), len(c.Measures))
		}
		for _, np := range r.Nodes {
			if got := actual[np.Node]; got.CellsFinalized != np.CellsFinalized || got.RecordsIn != np.RecordsIn {
				t.Errorf("%s: node %s: the history line gives %+v, the run %+v", name, np.Node, np.NodeStats, got)
			}
		}
		if name == "singlescan-budget" && (r.EngineStats.Spills == 0 || r.EngineStats.SortRuns < 2) {
			t.Errorf("%s: %d spills, %d merge runs; the budget was meant to force a multi-run merge",
				name, r.EngineStats.Spills, r.EngineStats.SortRuns)
		}
	}
}

// TestEnginesEndSpansOnTrip: a run that a budget trip or cancellation
// ends leaves no span of its phase tree running — budget trips are
// pinned in the flight recorder, which would show a phase that never
// ended.
func TestEnginesEndSpansOnTrip(t *testing.T) {
	g := NewGen(46, 2)
	c := obsWorkflow(t, g)
	fact := writeFact(t, g, g.Records(5000))
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	trips := map[string]func() *qguard.Guard{
		"live-cells":  func() *qguard.Guard { return qguard.New(context.Background(), qguard.Limits{MaxLiveCells: 5}) },
		"result-rows": func() *qguard.Guard { return qguard.New(context.Background(), qguard.Limits{MaxResultRows: 3}) },
		"cancel":      func() *qguard.Guard { return qguard.New(canceled, qguard.Limits{}) },
	}
	for name, run := range obsEngines(key) {
		for trip, guard := range trips {
			rec := obs.New()
			_, err := run(c, scan.FileInput(fact), scan.EngineOptions{TempDir: filepath.Dir(fact), Recorder: rec, Guard: guard()})
			// The relational baseline holds no live cells to trip on.
			if err == nil && !(name == "relational" && trip == "live-cells") {
				t.Errorf("%s under %s: the run did not fail", name, trip)
			}
			if running := runningSpans(rec.Snapshot().Spans); len(running) > 0 {
				t.Errorf("%s under %s: spans %v still running", name, trip, running)
			}
		}
	}
}

// runningSpans names every span of the trees still running.
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
