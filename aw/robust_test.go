package aw_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

func writeAttackFact(t *testing.T, recs []aw.Record) string {
	t.Helper()
	fact := filepath.Join(t.TempDir(), "fact.rec")
	if err := aw.WriteRecords(fact, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	return fact
}

func TestFaultTimeoutDeadlineExceeded(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(5000, 21)
	fact := writeAttackFact(t, recs)
	rec := aw.NewRecorder()
	_, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Timeout: time.Nanosecond, Recorder: rec},
		TempDir:     filepath.Dir(fact),
	})
	if !errors.Is(err, aw.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if n := rec.Counter(obs.MQueriesCanceled).Value(); n != 1 {
		t.Errorf("queries_canceled = %d, want 1", n)
	}
}

func TestFaultMaxResultRowsBudget(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(2000, 22)
	fact := writeAttackFact(t, recs)
	rec := aw.NewRecorder()
	_, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{MaxResultRows: 10, Recorder: rec},
		TempDir:     filepath.Dir(fact),
	})
	be, ok := aw.AsBudgetError(err)
	if !ok || be.Resource != aw.ResResultRows {
		t.Fatalf("got %v, want result-rows BudgetError", err)
	}
	if !errors.Is(err, aw.ErrBudgetExceeded) {
		t.Fatalf("BudgetError does not unwrap to ErrBudgetExceeded: %v", err)
	}
	if n := rec.Counter(obs.MBudgetRejections).Value(); n != 1 {
		t.Errorf("budget_rejections = %d, want 1", n)
	}
}

// TestFaultMaxSpillBytesBudget: MaxSpillBytes bounds bytes written to
// temporary files. A single-scan whose memory budget forces its tables
// to disk trips it; a sort/scan whose input fits one sort chunk writes
// no temporary file and runs to completion under the same cap.
func TestFaultMaxSpillBytesBudget(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(5000, 23)
	fact := writeAttackFact(t, recs)
	_, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan, MemoryBudget: 4096, MaxSpillBytes: 1024},
		TempDir:     filepath.Dir(fact),
	})
	be, ok := aw.AsBudgetError(err)
	if !ok || be.Resource != aw.ResSpillBytes {
		t.Fatalf("budgeted single-scan: got %v, want spill BudgetError", err)
	}
	_, err = aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan, MaxSpillBytes: 1024},
		TempDir:     filepath.Dir(fact),
	})
	if err != nil {
		t.Fatalf("in-memory sort/scan under a spill cap: %v", err)
	}
}

// TestFaultPanicRecovered: malformed in-memory records (fewer dims than
// the schema) panic deep inside an engine; the public API must turn
// that into an error, not crash the caller.
func TestFaultPanicRecovered(t *testing.T) {
	s := attackSchema(t)
	bad := []aw.Record{{Dims: []int64{1}, Ms: nil}, {Dims: []int64{2}, Ms: nil}}
	_, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(bad))
	if err == nil {
		t.Fatal("malformed records evaluated without error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("got %v, want an internal-error report", err)
	}
}

// TestFaultAutoFallbackMultipass: EngineAuto picks sort/scan off wildly
// wrong cardinality estimates; the run-time live-cell guardrail trips,
// and the query must degrade to multi-pass and still produce correct
// results, counting one fallback_engine_switches.
func TestFaultAutoFallbackMultipass(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(3000, 24)
	fact := writeAttackFact(t, recs)
	gT, err := s.MakeGran(map[string]string{"t": "Second"})
	if err != nil {
		t.Fatal(err)
	}
	gU, err := s.MakeGran(map[string]string{"U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	wf := func() *aw.Workflow {
		return aw.NewWorkflow(s).
			Basic("mT", gT, aw.Count, -1).
			Basic("mU", gU, aw.Count, -1)
	}

	want, err := aw.Run(context.Background(), wf(), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan},
		TempDir:     filepath.Dir(fact),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Claimed cardinalities make single-scan look too big for the
	// default budget while one sorted pass looks fine; the real data has
	// ~3000 distinct seconds and ~750 distinct IPs, so whichever
	// dimension the chosen key leaves unsorted overflows MaxLiveCells.
	rec := aw.NewRecorder()
	got, err := aw.Run(context.Background(), wf(), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{
			Engine:       aw.EngineAuto,
			MaxLiveCells: 400,
			Recorder:     rec,
		},
		TempDir:   filepath.Dir(fact),
		BaseCards: []float64{1.5e7, 1.5e7, 1, 1},
	})
	if err != nil {
		t.Fatalf("fallback did not rescue the query: %v", err)
	}
	if n := rec.Counter(obs.MFallbackSwitches).Value(); n != 1 {
		t.Errorf("fallback_engine_switches = %d, want 1", n)
	}
	for name, tbl := range want {
		if !tbl.Equal(got[name], 1e-9) {
			t.Errorf("measure %s differs after fallback", name)
		}
	}
}

// TestFaultAutoInMemoryBudgetKeepsTypedError: with an in-memory input
// the multipass fallback is unavailable, so an EngineAuto sort/scan
// attempt that blows the live-cell budget must surface the original
// typed BudgetError (counted as a budget rejection), not a
// "requires a file input" retry failure.
func TestFaultAutoInMemoryBudgetKeepsTypedError(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(3000, 24)
	gT, err := s.MakeGran(map[string]string{"t": "Second"})
	if err != nil {
		t.Fatal(err)
	}
	gU, err := s.MakeGran(map[string]string{"U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	wf := aw.NewWorkflow(s).
		Basic("mT", gT, aw.Count, -1).
		Basic("mU", gU, aw.Count, -1)

	rec := aw.NewRecorder()
	_, err = aw.Run(context.Background(), wf, aw.FromRecords(recs), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{
			Engine:       aw.EngineAuto,
			MaxLiveCells: 400,
			Recorder:     rec,
		},
		BaseCards: []float64{1.5e7, 1.5e7, 1, 1},
	})
	be, ok := aw.AsBudgetError(err)
	if !ok || be.Resource != aw.ResLiveCells {
		t.Fatalf("got %v, want live-cells BudgetError", err)
	}
	if n := rec.Counter(obs.MFallbackSwitches).Value(); n != 0 {
		t.Errorf("fallback_engine_switches = %d, want 0 for in-memory input", n)
	}
	if n := rec.Counter(obs.MBudgetRejections).Value(); n != 1 {
		t.Errorf("budget_rejections = %d, want 1", n)
	}
}

// sortForStream orders records by the stream's arrival key.
func sortForStream(s *aw.Schema, key aw.SortKey, recs []aw.Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		return key.RecordLess(s, &recs[i], &recs[j])
	})
}

func TestFaultStreamCancelMidPush(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(2000, 25)
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := aw.RunStream(ctx, busyWorkflow(t, s, 1), aw.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortForStream(s, stream.SortKey(), recs)
	cancel()
	var pushErr error
	for i := range recs {
		if pushErr = stream.Push(&recs[i]); pushErr != nil {
			break
		}
	}
	if !errors.Is(pushErr, aw.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled within the push stride", pushErr)
	}
}

func TestFaultStreamLiveCellBudget(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(3000, 26)
	gIP, err := s.MakeGran(map[string]string{"U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	// A per-IP measure under a time-ordered stream cannot finalize any
	// cell before end-of-stream, so the frontier grows to the ~750
	// distinct source IPs and must trip the 50-cell budget at a push
	// stride. (A well-aligned key keeps the frontier tiny — that is the
	// paper's point — so the budget is exercised with a hostile key.)
	w := aw.NewWorkflow(s).Basic("perIP", gIP, aw.Count, -1)
	key := aw.SortKey{{Dim: 0, Lvl: 0}}
	stream, err := aw.RunStream(context.Background(), w, aw.StreamOptions{
		ExecOptions: aw.ExecOptions{MaxLiveCells: 50},
		SortKey:     key,
	})
	if err != nil {
		t.Fatal(err)
	}
	sortForStream(s, key, recs)
	var pushErr error
	for i := range recs {
		if pushErr = stream.Push(&recs[i]); pushErr != nil {
			break
		}
	}
	be, ok := aw.AsBudgetError(pushErr)
	if !ok || be.Resource != aw.ResLiveCells {
		t.Fatalf("got %v, want live-cells BudgetError", pushErr)
	}
}

// TestOutcomeOf pins the one mapping from a run error to its recorded
// outcome, which history records, served-answer records and the
// robustness counters all share.
func TestOutcomeOf(t *testing.T) {
	budget := &aw.BudgetError{Resource: aw.ResResultRows, Limit: 1, Used: 2}
	for _, tc := range []struct {
		name    string
		err     error
		outcome string
	}{
		{"nil", nil, aw.OutcomeOK},
		{"canceled", fmt.Errorf("scan: %w", aw.ErrCanceled), aw.OutcomeCanceled},
		{"deadline", aw.ErrDeadlineExceeded, aw.OutcomeCanceled},
		{"budget", fmt.Errorf("sort: %w", budget), aw.OutcomeBudget},
		{"other", errors.New("disk on fire"), aw.OutcomeError},
	} {
		outcome, msg := aw.OutcomeOf(tc.err)
		if outcome != tc.outcome {
			t.Errorf("%s: outcome %q, want %q", tc.name, outcome, tc.outcome)
		}
		if (tc.err == nil) != (msg == "") {
			t.Errorf("%s: message %q for error %v", tc.name, msg, tc.err)
		}
	}
}
