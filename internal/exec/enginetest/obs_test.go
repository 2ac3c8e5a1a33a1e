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
// every cell it flushed through the shared metric vocabulary.
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
	snap := rec.Snapshot()
	if got := snap.Counters[obs.MRecordsScanned]; got != int64(len(recs)) {
		t.Errorf("records_scanned = %d, want %d", got, len(recs))
	}
	if snap.Counters[obs.MCellsFinalized] == 0 {
		t.Error("cells_finalized = 0, want > 0")
	}
	if snap.Counters[obs.MCellsCreated] == 0 {
		t.Error("cells_created = 0, want > 0")
	}
	if snap.Gauges[obs.GLiveCellsHWM] == 0 {
		t.Error("live_cells_hwm = 0, want > 0")
	}
	// Stats stays a consistent view over the recorder.
	if res.Stats.Records != snap.Counters[obs.MRecordsScanned] {
		t.Errorf("Stats.Records %d != records_scanned %d", res.Stats.Records, snap.Counters[obs.MRecordsScanned])
	}
	if res.Stats.PeakCells != snap.Gauges[obs.GLiveCellsHWM] {
		t.Errorf("Stats.PeakCells %d != live_cells_hwm %d", res.Stats.PeakCells, snap.Gauges[obs.GLiveCellsHWM])
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

// TestEnginesShareMetricVocabulary: all four engines plus shardscan
// must publish the same core metric names for the same workload, so
// snapshots are comparable across evaluators.
func TestEnginesShareMetricVocabulary(t *testing.T) {
	g := NewGen(44, 2)
	c := obsWorkflow(t, g)
	recs := g.Records(600)
	fact := writeFact(t, g, recs)
	tempDir := filepath.Dir(fact)
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}

	in := scan.FileInput(fact)
	eo := func(rec *obs.Recorder) scan.EngineOptions { return scan.EngineOptions{TempDir: tempDir, Recorder: rec} }
	engines := map[string]func(rec *obs.Recorder) error{
		"sortscan": func(rec *obs.Recorder) error {
			_, err := sortscan.Run(c, in, sortscan.Options{EngineOptions: eo(rec), SortKey: key})
			return err
		},
		"singlescan": func(rec *obs.Recorder) error {
			_, err := singlescan.Run(c, in, singlescan.Options{EngineOptions: eo(rec)})
			return err
		},
		"multipass": func(rec *obs.Recorder) error {
			_, err := multipass.Run(c, in, multipass.Options{EngineOptions: eo(rec)})
			return err
		},
		"shardscan": func(rec *obs.Recorder) error {
			_, err := sortscan.RunSharded(c, in, sortscan.ShardedOptions{
				Options: sortscan.Options{EngineOptions: eo(rec), SortKey: key}, Shards: 2,
			})
			return err
		},
		"relational": func(rec *obs.Recorder) error {
			_, err := relbaseline.Run(c, in, eo(rec))
			return err
		},
	}
	core := []string{obs.MRecordsScanned, obs.MCellsCreated, obs.MCellsFinalized, obs.MSpillEvents, obs.MSpillBytes}
	gauges := []string{obs.GLiveCellsHWM, obs.GHashBytesHWM}
	for name, run := range engines {
		rec := obs.New()
		if err := run(rec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := rec.Snapshot()
		for _, m := range core {
			if _, ok := snap.Counters[m]; !ok {
				t.Errorf("%s: counter %q missing from snapshot (have %v)", name, m, snap.Counters)
			}
		}
		for _, m := range gauges {
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
