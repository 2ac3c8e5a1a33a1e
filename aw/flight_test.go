package aw_test

// Flight-recorder behavior at the library layer: every run commits a
// trace under its (given or generated) trace ID, a pinned attempt's
// history line carries its span tree, and replay on open restores the
// trace from the one history log — slow-query post-mortems survive
// restarts.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awra/aw"
)

func TestFlightTraceCommittedAndPersisted(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(3000, 41))
	dir := t.TempDir()
	h, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	tid := aw.NewTraceID()
	o := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, TraceID: tid, RequestID: "req-flight", MaxResultRows: 1},
		TempDir:     filepath.Dir(fact),
	}
	_, err = aw.RunCompiled(context.Background(), c, aw.FromFile(fact), o)
	if !errors.Is(err, aw.ErrBudgetExceeded) {
		t.Fatalf("want a budget trip, got %v", err)
	}

	// The trace is retrievable by ID, pinned, and fully assembled.
	tr, ok := aw.LookupTrace(tid)
	if !ok {
		t.Fatalf("budget-tripped trace %s not retained", tid)
	}
	if !tr.Pinned || !strings.Contains(strings.Join(tr.PinReasons, ","), "budget") {
		t.Fatalf("pinned=%v reasons=%v, want pinned for budget", tr.Pinned, tr.PinReasons)
	}
	if tr.RequestID != "req-flight" || len(tr.Attempts) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Attempts[0].Span == nil || tr.Attempts[0].Span.Attrs["trace_id"] != tid {
		t.Fatalf("attempt span missing trace_id attr: %+v", tr.Attempts[0].Span)
	}
	if len(tr.Attempts[0].Nodes) == 0 {
		t.Fatal("attempt carries no node profile")
	}

	// The history record cross-references the trace.
	recent := h.Recent(1)
	if len(recent) != 1 || recent[0].TraceID != tid {
		t.Fatalf("history record trace_id = %q, want %q", recent[0].TraceID, tid)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// The pinned attempt's history line carries its span tree, and the
	// history directory holds that one log.
	b, err := os.ReadFile(filepath.Join(dir, "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(tid)) || !bytes.Contains(b, []byte(`"span":{`)) {
		t.Fatalf("history.jsonl lacks trace %s with its span:\n%s", tid, b)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "history.jsonl" {
		t.Fatalf("history directory holds %v, want history.jsonl alone", ents)
	}

	// "Restart": the process-global ring has never seen tid2, so finding
	// it after reopening proves the history log was replayed into the
	// ring. (Rewriting the ID simulates an entry from a previous
	// process's lifetime.)
	tid2 := aw.NewTraceID()
	if err := os.WriteFile(filepath.Join(dir, "history.jsonl"),
		bytes.ReplaceAll(b, []byte(tid), []byte(tid2)), 0o644); err != nil {
		t.Fatal(err)
	}
	h2, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	got, ok := aw.LookupTrace(tid2)
	if !ok {
		t.Fatalf("replayed trace %s not restored into the flight ring", tid2)
	}
	if !got.Pinned || got.RequestID != "req-flight" || len(got.Attempts) != 1 {
		t.Fatalf("restored trace = %+v", got)
	}
	if att := got.Attempts[0]; att.Span == nil || len(att.Nodes) == 0 || att.Outcome != aw.OutcomeBudget {
		t.Fatalf("restored attempt lost its span, profile or outcome: %+v", att)
	}
}

// TestUnpinnedRunLogsNoSpan: a healthy, fast run's history line carries
// no span tree — only pinned attempts pay for persisting one.
func TestUnpinnedRunLogsNoSpan(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(500, 44))
	dir := t.TempDir()
	h, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	// An operator threshold no run reaches keeps the slow pin out of play.
	aw.SetSlowThresholdUs(1 << 50)
	defer aw.SetSlowThresholdUs(0)
	tid := aw.NewTraceID()
	if _, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, TraceID: tid},
		TempDir:     filepath.Dir(fact),
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(tid)) || bytes.Contains(b, []byte(`"span"`)) {
		t.Fatalf("unpinned run's line must name its trace and carry no span:\n%s", b)
	}
}

func TestFlightTraceGeneratedWhenUnset(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(500, 43))
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	// No TraceID, no History: the run must still mint an ID (visible on
	// the query span) and commit without error.
	rec := aw.NewRecorder()
	o := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Recorder: rec},
		TempDir:     filepath.Dir(fact),
	}
	if _, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), o); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Spans) == 0 {
		t.Fatal("no query span recorded")
	}
	id := snap.Spans[0].Attrs["trace_id"]
	if len(id) != 32 {
		t.Fatalf("query span trace_id attr %q is not a generated 32-hex ID", id)
	}
}
