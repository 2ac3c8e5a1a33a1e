package aw_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"awra/aw"
)

// TestSharedRecorderHistoryPerRun: two identical runs sharing one
// Recorder and one History log the same records_scanned and the same
// per-node cells_finalized. The recorder accumulates across the runs;
// a history line must not read its totals back from it, or the second
// line doubles and the planner learns doubled cardinalities.
func TestSharedRecorderHistoryPerRun(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(2000, 41)
	fact := writeAttackFact(t, recs)
	h, err := aw.OpenHistory(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	o := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan, History: h, Recorder: aw.NewRecorder()},
		TempDir:     filepath.Dir(fact),
	}
	for i := 0; i < 2; i++ {
		if _, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), o); err != nil {
			t.Fatal(err)
		}
	}
	got := h.Recent(2)
	second, first := got[0], got[1]
	for i, r := range got {
		if r.Records != int64(len(recs)) {
			t.Errorf("line %d: records_scanned = %d, want %d", 2-i, r.Records, len(recs))
		}
	}
	if len(first.Nodes) != len(second.Nodes) {
		t.Fatalf("node profiles: %d then %d", len(first.Nodes), len(second.Nodes))
	}
	for i := range first.Nodes {
		a, b := first.Nodes[i], second.Nodes[i]
		if a.CellsFinalized == 0 || a.CellsFinalized != b.CellsFinalized {
			t.Errorf("node %s: cells_finalized %d then %d", a.Node, a.CellsFinalized, b.CellsFinalized)
		}
	}
}

// TestExplainAnalyzeReusedRecorderPerRun: EXPLAIN ANALYZE over a
// recorder that already saw a run reports the actuals and the stats of
// its own run, not the recorder's running totals.
func TestExplainAnalyzeReusedRecorderPerRun(t *testing.T) {
	s := attackSchema(t)
	const rows = 2000
	fact := writeAttackFact(t, attackRecords(rows, 42))
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	o := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan, Recorder: aw.NewRecorder()},
		TempDir:     filepath.Dir(fact),
	}
	var runs [2]*aw.Profile
	for i := range runs {
		res, err := aw.ExplainAnalyzeCompiled(context.Background(), c, aw.FromFile(fact), o)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Profile
		if st := res.Profile.Stats; st == nil || st.Records != rows {
			t.Errorf("run %d: profile stats %+v, want records_scanned %d", i+1, st, rows)
		}
	}
	for i, n := range runs[0].Nodes {
		a, b := n.Actual, runs[1].Nodes[i].Actual
		if a == nil || b == nil {
			t.Fatalf("node %s has no actuals", n.Name)
		}
		if a.RecordsIn == 0 || a.RecordsIn != b.RecordsIn || a.CellsFinalized != b.CellsFinalized {
			t.Errorf("node %s: records_in %d then %d, cells_finalized %d then %d",
				n.Name, a.RecordsIn, b.RecordsIn, a.CellsFinalized, b.CellsFinalized)
		}
	}
}

// parentLine is a history line as written before the engine stats were
// embedded: records_scanned was the one engine count it carried, and
// spill_bytes the guard's accumulator.
const parentLine = `{"time":"2026-10-01T12:00:00Z","trace_id":"0123456789abcdef0123456789abcdef",` +
	`"label":"sCount,sTraffic","query_fp":"q1","collection_fp":"f-00","engine":"sortscan",` +
	`"sort_key":"t:Hour,U:IP","outcome":"ok","duration_us":1500,"phases_us":{"scan":900,"sort":400},` +
	`"records_scanned":2000,"result_rows":48,"spill_bytes":4096,` +
	`"nodes":[{"node":"Count","records_in":2000,"cells_finalized":1963,"sig":"s1","est_source":"assumed"}]}`

// TestHistoryReplaysParentLine: a line the previous record layout wrote
// replays into the same values, and re-encodes to the same keys.
func TestHistoryReplaysParentLine(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "history.jsonl"), []byte(parentLine+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Len() != 1 {
		t.Fatalf("replayed %d records, want 1", h.Len())
	}
	r := h.Recent(1)[0]
	if r.Records != 2000 || r.SpillBytes != 4096 || r.ResultRows != 48 {
		t.Errorf("records_scanned %d, spill_bytes %d, result_rows %d; want 2000, 4096, 48", r.Records, r.SpillBytes, r.ResultRows)
	}
	if len(r.Nodes) != 1 || r.Nodes[0].CellsFinalized != 1963 {
		t.Errorf("nodes = %+v", r.Nodes)
	}

	var rec aw.HistoryRecord
	if err := json.Unmarshal([]byte(parentLine), &rec); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	var want, got map[string]any
	if err := json.Unmarshal([]byte(parentLine), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("re-encoded line differs:\n got %s\nwant %s", again, parentLine)
	}
}

// TestSpillBytesGuardMatchesEngine: on a spilling run, the guard's
// spill_bytes (what the history line carries) and the engine's own
// spill_bytes count the same bytes.
func TestSpillBytesGuardMatchesEngine(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(3000, 43))
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, eo := range []aw.ExecOptions{
		{Engine: aw.EngineSingleScan, MemoryBudget: 16 << 10},
		{Engine: aw.EngineRelational},
	} {
		h, err := aw.OpenHistory(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eo.History = h
		_, err = aw.RunCompiled(context.Background(), c, aw.FromFile(fact), aw.QueryOptions{ExecOptions: eo, TempDir: filepath.Dir(fact)})
		h.Close()
		if err != nil {
			t.Fatalf("%v: %v", eo.Engine, err)
		}
		r := h.Recent(1)[0]
		if r.SpillBytes == 0 || r.SpillBytes != r.EngineStats.SpillBytes {
			t.Errorf("%v: guard spill_bytes %d, engine spill_bytes %d", eo.Engine, r.SpillBytes, r.EngineStats.SpillBytes)
		}
	}
}
