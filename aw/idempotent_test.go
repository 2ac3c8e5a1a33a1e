package aw_test

// Regression tests for the serving layer's two library-side contracts:
// a retried-then-successful degraded read publishes rows_corrupt_skipped
// once (not once per attempt), and history records carrying the same
// RequestID supersede each other (a resent request never double-logs).

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"awra/aw"
	"awra/internal/obs"
)

// corruptAttackRecord flips a byte in record i of a fact file written
// by writeAttackFact (4 dims, 0 measures, format v2: 36-byte records
// after a 32-byte header).
func corruptAttackRecord(t *testing.T, path string, i int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[32+i*36] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFallbackCorruptSkipCountedOnce: a degraded read whose
// sort/scan attempt trips the live-cell budget is retried as
// multi-pass, re-reading the file and re-skipping the same corrupt
// rows. The published rows_corrupt_skipped must be the three corrupt
// rows — neither the failed attempt's skips nor the passes' re-reads
// are added on top.
func TestFaultFallbackCorruptSkipCountedOnce(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(3000, 24)
	fact := writeAttackFact(t, recs)
	for _, i := range []int{100, 1500, 2500} {
		corruptAttackRecord(t, fact, i)
	}
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
	// The same wildly wrong claimed cardinalities as
	// TestFaultAutoFallbackMultipass: EngineAuto picks sort/scan, the
	// run-time frontier blows MaxLiveCells, multi-pass rescues it.
	baseCards := []float64{1.5e7, 1.5e7, 1, 1}

	// Baseline: a direct multi-pass run with the budget the fallback
	// retry will compute (MaxLiveCells * 64 bytes/cell). Every pass
	// skips the same three rows, and they count once.
	recMP := aw.NewRecorder()
	if _, err := aw.Run(context.Background(), wf(), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{
			Engine:          aw.EngineMultiPass,
			MemoryBudget:    400 * 64,
			MaxLiveCells:    400,
			SkipCorruptRows: true,
			Recorder:        recMP,
		},
		TempDir:   t.TempDir(),
		BaseCards: baseCards,
	}); err != nil {
		t.Fatalf("baseline multipass: %v", err)
	}
	const want = 3
	if n := recMP.Counter(obs.MRowsCorruptSkipped).Value(); n != want {
		t.Fatalf("baseline multipass: rows_corrupt_skipped = %d, want %d", n, want)
	}

	rec := aw.NewRecorder()
	if _, err := aw.Run(context.Background(), wf(), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{
			Engine:          aw.EngineAuto,
			MaxLiveCells:    400,
			SkipCorruptRows: true,
			Recorder:        rec,
		},
		TempDir:   t.TempDir(),
		BaseCards: baseCards,
	}); err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if n := rec.Counter(obs.MFallbackSwitches).Value(); n != 1 {
		t.Fatalf("fallback_engine_switches = %d, want 1 (setup no longer forces the fallback)", n)
	}
	if got := rec.Counter(obs.MRowsCorruptSkipped).Value(); got != want {
		t.Errorf("rows_corrupt_skipped = %d after fallback, want %d (failed attempt must not be added)", got, want)
	}
}

// TestHistoryRequestIDSupersedes: records sharing a RequestID count
// once — the later record (the retry's final outcome) replaces the
// earlier in the recent ring and the total, both live and across a
// reopen's replay.
func TestHistoryRequestIDSupersedes(t *testing.T) {
	dir := t.TempDir()
	h, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	app := func(id, outcome string) {
		t.Helper()
		if err := h.Append(&aw.HistoryRecord{RequestID: id, Label: "q", Engine: "sortscan",
			Outcome: outcome, DurationUs: 5}); err != nil {
			t.Fatal(err)
		}
	}
	app("req-1", aw.OutcomeError) // a failed run
	app("req-1", aw.OutcomeOK)    // the client's successful resend
	app("req-2", aw.OutcomeOK)
	app("", aw.OutcomeOK) // records without IDs never dedupe
	app("", aw.OutcomeOK)

	check := func(h *aw.History, phase string) {
		t.Helper()
		if n := h.Len(); n != 4 {
			t.Fatalf("%s: Len = %d, want 4 (req-1 retried, 2 anonymous)", phase, n)
		}
		var got []string
		for _, r := range h.Recent(10) {
			if r.RequestID == "req-1" {
				got = append(got, r.Outcome)
			}
		}
		if len(got) != 1 || got[0] != aw.OutcomeOK {
			t.Fatalf("%s: req-1 records = %v, want exactly one with outcome ok", phase, got)
		}
	}
	check(h, "live")
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay applies the same supersede rule: the on-disk log keeps both
	// attempts, the views keep one.
	h2, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	check(h2, "replayed")
}

// TestRunRequestIDInHistory: the RequestID option flows end-to-end into
// the appended record, including for compile failures (which never
// reach an engine but still log).
func TestRunRequestIDInHistory(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(200, 7))
	dir := t.TempDir()
	h, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if _, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, RequestID: "good-1"},
		TempDir:     filepath.Dir(fact),
	}); err != nil {
		t.Fatal(err)
	}

	gHour, err := s.MakeGran(map[string]string{"t": "Hour"})
	if err != nil {
		t.Fatal(err)
	}
	bad := aw.NewWorkflow(s).Rollup("r", gHour, "missing", aw.Sum)
	if _, err := aw.Run(context.Background(), bad, aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, RequestID: "bad-1"},
	}); err == nil {
		t.Fatal("rollup over a missing measure compiled")
	}

	byID := map[string]string{}
	for _, r := range h.Recent(10) {
		byID[r.RequestID] = r.Outcome
	}
	if byID["good-1"] != aw.OutcomeOK {
		t.Errorf("good-1 outcome = %q, want ok", byID["good-1"])
	}
	if byID["bad-1"] != aw.OutcomeError {
		t.Errorf("bad-1 outcome = %q, want error", byID["bad-1"])
	}
}
