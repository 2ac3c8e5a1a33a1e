package aw_test

import (
	"context"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"awra/aw"
	"awra/internal/core"
	"awra/internal/obs"
	"awra/internal/storage"
)

func TestStreamMatchesQuery(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(2500, 11)
	want, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs))
	if err != nil {
		t.Fatal(err)
	}

	var emitted int
	stream, err := aw.RunStream(context.Background(), busyWorkflow(t, s, 1), aw.StreamOptions{
		Emit: func(string, aw.Key, float64) { emitted++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	key := stream.SortKey()
	sorted := append([]aw.Record{}, recs...)
	// Sort by the stream's expected arrival order.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && key.RecordLess(s, &sorted[j], &sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i := range sorted {
		if err := stream.Push(&sorted[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := stream.Close()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for name, tbl := range want {
		if !tbl.Equal(got[name], 1e-9) {
			t.Errorf("measure %s differs between stream and query", name)
		}
		total += len(tbl.Rows)
	}
	if emitted != total {
		t.Errorf("emitted %d values for %d regions", emitted, total)
	}
	if stream.Records() != int64(len(recs)) {
		t.Errorf("stream records = %d", stream.Records())
	}
}

// TestStreamAcceptsKeyTiesInAnyOrder: a stream checks sort-key order
// and nothing more. Records that tie on every key part arrive here with
// their base coordinates descending; the stream must accept them, still
// reject a record below the key order, and answer exactly what aw.Run
// does — for the busy workflow and for one with every measure kind.
func TestStreamAcceptsKeyTiesInAnyOrder(t *testing.T) {
	s := attackSchema(t)
	gran := func(m map[string]string) aw.Gran {
		g, err := s.MakeGran(m)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	level := func(dim int, name string) aw.Level {
		l, err := s.Dim(dim).LevelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	gCnt, gHour := gran(map[string]string{"t": "Hour", "U": "/24"}), gran(map[string]string{"t": "Hour"})
	mixed := func() *aw.Workflow {
		return aw.NewWorkflow(s).
			Basic("cnt", gCnt, aw.Count, -1).
			Rollup("busy", gHour, "cnt", aw.Count, aw.Where(aw.MWhere(0, aw.Gt, 1))).
			Sliding("trend", "busy", aw.Avg, []aw.Window{{Dim: 0, Lo: -2, Hi: 0}}).
			FromParent("ofHour", gCnt, "busy", aw.Sum).
			Combine("share", []string{"trend", "busy"}, aw.Ratio(0, 1))
	}
	for _, tc := range []struct {
		name string
		wf   func() *aw.Workflow
		key  aw.SortKey
		recs []aw.Record
	}{
		{"busy", func() *aw.Workflow { return busyWorkflow(t, s, 1) },
			aw.SortKey{{Dim: 0, Lvl: level(0, "Hour")}, {Dim: 1, Lvl: level(1, "IP")}}, attackRecords(2500, 11)},
		{"mixed", mixed, aw.SortKey{{Dim: 0, Lvl: level(0, "Day")}, {Dim: 1, Lvl: level(1, "IP")}}, attackRecords(6000, 12)},
	} {
		want, err := aw.Run(context.Background(), tc.wf(), aw.FromRecords(tc.recs))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := aw.RunStream(context.Background(), tc.wf(), aw.StreamOptions{SortKey: tc.key})
		if err != nil {
			t.Fatal(err)
		}
		key := stream.SortKey()
		codes := func(r *aw.Record) []int64 {
			out := make([]int64, len(key))
			for i, p := range key {
				out[i] = s.Dim(p.Dim).Up(0, p.Lvl, r.Dims[p.Dim])
			}
			return out
		}
		recs := append([]aw.Record{}, tc.recs...)
		sort.Slice(recs, func(i, j int) bool {
			if c := slices.Compare(codes(&recs[i]), codes(&recs[j])); c != 0 {
				return c < 0
			}
			return key.RecordLess(s, &recs[j], &recs[i])
		})
		descending := 0
		for i := range recs {
			if i > 0 && key.RecordLess(s, &recs[i], &recs[i-1]) {
				descending++
			}
			if err := stream.Push(&recs[i]); err != nil {
				t.Fatalf("%s: push %d of %d: %v", tc.name, i, len(recs), err)
			}
		}
		if descending == 0 {
			t.Fatalf("%s: no key tie arrives with descending base coordinates", tc.name)
		}
		if err := stream.Push(&recs[0]); err == nil {
			t.Errorf("%s: a record below the key order was accepted", tc.name)
		}
		got, err := stream.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !aw.ResultsEqual(want, got, 0) {
			t.Errorf("%s: stream tables differ from aw.Run", tc.name)
		}
	}
}

func TestSaveLoadResultsThroughFacade(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(1500, 13)
	res, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := aw.SaveResults(dir, s, res); err != nil {
		t.Fatal(err)
	}
	back, err := aw.LoadResults(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range res {
		if !tbl.Equal(back[name], 0) {
			t.Errorf("measure %s changed in store round trip", name)
		}
	}
}

func TestAutoStatsAndParallelism(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(3000, 17)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	want, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	// AutoStats + parallel sort on sortscan.
	got, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan, Parallelism: 4},
		AutoStats:   true, TempDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range want {
		if !tbl.Equal(got[name], 1e-9) {
			t.Errorf("measure %s differs with AutoStats+Parallelism", name)
		}
	}
	// Single-scan is serial whatever the worker count.
	got, err = aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan, Parallelism: 3},
		TempDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range want {
		if !tbl.Equal(got[name], 1e-9) {
			t.Errorf("measure %s differs on single-scan with Parallelism set", name)
		}
	}
	// AutoStats samples in-memory records as it does a file.
	got, err = aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs), aw.QueryOptions{AutoStats: true})
	if err != nil {
		t.Fatalf("AutoStats over records: %v", err)
	}
	if !aw.ResultsEqual(want, got, 0) {
		t.Error("AutoStats over records changed the tables")
	}
	// CollectStats sanity.
	cards, err := aw.CollectStats(fact, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cards) != 4 || cards[0] < 100 {
		t.Errorf("cards = %v", cards)
	}
}

// TestBudgetedSingleScanIgnoresParallelism: single-scan with both a
// MemoryBudget and Parallelism > 1 — awserved's defaults plus
// -parallelism — answers the query, through the serial spilling engine
// (the budget is small enough that it must spill), with the tables of
// the reference evaluator.
func TestBudgetedSingleScanIgnoresParallelism(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(3000, 23)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	rec := aw.NewRecorder()
	got, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan, Parallelism: 2, MemoryBudget: 16 << 10, Recorder: rec},
		TempDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counter(obs.MSpillEvents).Value() == 0 {
		t.Error("a 16 KB budget did not spill: the query did not reach the spilling engine")
	}
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.Outputs() {
		e, err := core.Translate(c, name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Eval(e, recs)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got[name], 0) {
			t.Errorf("measure %s differs from core.Eval", name)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(800, 19)
	res, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	tbl := res["Count"]
	top := aw.TopK(tbl, 5)
	if len(top) != 5 {
		t.Fatalf("TopK returned %d rows", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Value > top[i-1].Value {
			t.Fatal("TopK not descending")
		}
	}
	if top[0].Label == "" {
		t.Errorf("row decoration missing: %+v", top[0])
	}
	all := aw.TopK(tbl, 0)
	if len(all) != len(tbl.Rows) {
		t.Errorf("TopK(0) returned %d of %d rows", len(all), len(tbl.Rows))
	}
	sum := 0.0
	for _, v := range tbl.Rows {
		if aw.IsNull(v) {
			continue
		}
		if v > top[0].Value {
			t.Errorf("TopK's first row is %v, but the table holds %v", top[0].Value, v)
		}
		sum += v
	}
	if sum != float64(len(recs)) {
		t.Errorf("sum of values = %v, want %d (every record counted once)", sum, len(recs))
	}
}

func TestRunStreamAutoKey(t *testing.T) {
	s := attackSchema(t)
	stream, err := aw.RunStream(context.Background(), busyWorkflow(t, s, 1), aw.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.SortKey()) == 0 {
		t.Fatal("optimizer returned empty stream key")
	}
	if stream.Workflow() == nil {
		t.Fatal("compiled workflow not exposed")
	}
	if _, err := stream.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAuto(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(2500, 29)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	want, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1 << 30, 10_000} {
		got, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
			ExecOptions: aw.ExecOptions{Engine: aw.EngineAuto, MemoryBudget: budget},
			TempDir:     dir,
			BaseCards:   []float64{200000, 1000, 2000, 1024},
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for name, tbl := range want {
			if !tbl.Equal(got[name], 1e-9) {
				t.Fatalf("budget %d: measure %s differs", budget, name)
			}
		}
	}
	if e, err := aw.ParseEngine("auto"); err != nil || e != aw.EngineAuto {
		t.Errorf("ParseEngine(auto) = %v, %v", e, err)
	}
	if aw.EngineAuto.String() != "auto" {
		t.Errorf("EngineAuto.String = %q", aw.EngineAuto.String())
	}
}

func TestStreamBadSortKey(t *testing.T) {
	s := attackSchema(t)
	if _, err := aw.RunStream(context.Background(), busyWorkflow(t, s, 1), aw.StreamOptions{
		SortKey: aw.SortKey{{Dim: 99, Lvl: 0}},
	}); err == nil {
		t.Fatal("bad stream sort key accepted")
	}
}
