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
	"awra/internal/storage"
)

func writeAttackFact(t *testing.T, recs []aw.Record) string {
	t.Helper()
	fact := filepath.Join(t.TempDir(), "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, recs); err != nil {
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
	var be *aw.BudgetError
	if !errors.As(err, &be) || be.Resource != aw.ResResultRows {
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
	var be *aw.BudgetError
	if !errors.As(err, &be) || be.Resource != aw.ResSpillBytes {
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

// TestFaultPanicRecovered: a panic deep inside an engine — here a
// combine function that panics — must come back from the public API as
// an error, not crash the caller.
func TestFaultPanicRecovered(t *testing.T) {
	s := attackSchema(t)
	boom := aw.CombineFunc{Name: "boom", Fn: func([]float64) float64 { panic("combine function failed") }}
	w := busyWorkflow(t, s, 0).Combine("boom", []string{"sCount", "sTraffic"}, boom)
	_, err := aw.Run(context.Background(), w, aw.FromRecords(attackRecords(200, 20)))
	if err == nil {
		t.Fatal("a panicking engine returned no error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("got %v, want an internal-error report", err)
	}
}

// TestRecordShapeRejected: an in-memory record with the wrong number of
// dimensions fails the run with a typed error naming it, on every
// engine — it once returned tables under single-scan and panicked under
// the default engine.
func TestRecordShapeRejected(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(100, 27)
	recs[42].Dims = recs[42].Dims[:1]
	for _, eng := range []aw.Engine{aw.EngineSortScan, aw.EngineSingleScan} {
		res, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs), aw.QueryOptions{
			ExecOptions: aw.ExecOptions{Engine: eng},
		})
		var se *aw.RecordShapeError
		if !errors.As(err, &se) || se.Index != 42 || se.Dims != 1 || se.WantDims != 4 {
			t.Fatalf("%v: got %d tables, error %v; want a RecordShapeError naming record 42", eng, len(res), err)
		}
	}
}

// TestFaultAutoFallbackMultipass: EngineAuto picks sort/scan off wildly
// wrong cardinality estimates; the run-time live-cell guardrail trips,
// and the query must degrade to multi-pass and still produce correct
// results, counting one fallback_engine_switches — from a file and from
// in-memory records alike.
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
	for _, tc := range []struct {
		name string
		in   aw.Input
	}{{"file", aw.FromFile(fact)}, {"records", aw.FromRecords(recs)}} {
		rec := aw.NewRecorder()
		got, err := aw.Run(context.Background(), wf(), tc.in, aw.QueryOptions{
			ExecOptions: aw.ExecOptions{
				Engine:       aw.EngineAuto,
				MaxLiveCells: 400,
				Recorder:     rec,
			},
			TempDir:   t.TempDir(),
			BaseCards: []float64{1.5e7, 1.5e7, 1, 1},
		})
		if err != nil {
			t.Fatalf("%s: fallback did not rescue the query: %v", tc.name, err)
		}
		if n := rec.Counter(obs.MFallbackSwitches).Value(); n != 1 {
			t.Errorf("%s: fallback_engine_switches = %d, want 1", tc.name, n)
		}
		if !aw.ResultsEqual(want, got, 0) {
			t.Errorf("%s: tables differ after fallback", tc.name)
		}
	}
}

// TestAutoStatsReadsUnderGuard: AutoStats samples the input under the
// query's guard, so a corrupt row the degraded read skips is skipped by
// the sampler too — counted once — instead of failing the query.
func TestAutoStatsReadsUnderGuard(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(3000, 28))
	corruptAttackRecord(t, fact, 100)
	run := func(autoStats bool) (aw.Results, int64) {
		t.Helper()
		rec := aw.NewRecorder()
		res, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
			ExecOptions: aw.ExecOptions{SkipCorruptRows: true, Recorder: rec},
			TempDir:     t.TempDir(),
			AutoStats:   autoStats,
		})
		if err != nil {
			t.Fatalf("AutoStats=%v: %v", autoStats, err)
		}
		return res, rec.Counter(obs.MRowsCorruptSkipped).Value()
	}
	want, _ := run(false)
	got, skipped := run(true)
	if skipped != 1 {
		t.Errorf("rows_corrupt_skipped = %d, want 1", skipped)
	}
	if !aw.ResultsEqual(want, got, 0) {
		t.Error("AutoStats changed the tables")
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
		MaxLiveCells: 50,
		SortKey:      key,
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
	var be *aw.BudgetError
	if !errors.As(pushErr, &be) || be.Resource != aw.ResLiveCells {
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
