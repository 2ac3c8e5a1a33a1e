package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"awra/internal/obs"
	"awra/internal/qlog"
)

func mkRec(id, outcome string, durUs int64) *qlog.Record {
	return &qlog.Record{TraceID: id, Outcome: outcome, DurationUs: durUs}
}

// commit commits rec and returns the retained trace (zero when the
// ring dropped it) with the pin verdict.
func commit(r *Ring, rec *qlog.Record) (Trace, bool) {
	pinned := r.Commit(rec)
	got, _ := r.Get(rec.TraceID)
	return got, pinned
}

func reasons(t Trace) string { return strings.Join(t.PinReasons, ",") }

func TestPinOnBadOutcomes(t *testing.T) {
	for _, tc := range []struct {
		outcome string
		reason  string
	}{
		{qlog.OutcomeError, PinError},
		{qlog.OutcomeBudget, PinBudget},
		{qlog.OutcomeCanceled, PinCancel},
	} {
		r := NewRing(8, 4)
		got, pinned := commit(r, mkRec("t-"+tc.outcome, tc.outcome, 100))
		if !pinned || !got.Pinned {
			t.Fatalf("%s: not pinned", tc.outcome)
		}
		if reasons(got) != tc.reason {
			t.Fatalf("%s: reasons %q, want %q", tc.outcome, reasons(got), tc.reason)
		}
	}
}

func TestHealthySampling(t *testing.T) {
	r := NewRing(64, 4)
	retained := 0
	for i := 0; i < 16; i++ {
		if _, ok := r.Get(fmt.Sprintf("h%d", i)); ok {
			t.Fatal("trace present before commit")
		}
		got, pinned := commit(r, mkRec(fmt.Sprintf("h%d", i), qlog.OutcomeOK, 50))
		if pinned {
			t.Fatalf("healthy trace %d pinned: %v", i, got.PinReasons)
		}
		if got.TraceID != "" {
			retained++
			if !got.Sampled {
				t.Fatalf("retained healthy trace %d not marked sampled", i)
			}
		}
	}
	// 1-in-4 sampling over 16 commits, first commit always retained.
	if retained != 4 {
		t.Fatalf("retained %d of 16 healthy traces, want 4", retained)
	}
	if _, ok := r.Get("h0"); !ok {
		t.Fatal("first commit should always win the sampling draw")
	}
}

func TestRetryMergesIntoOneTrace(t *testing.T) {
	r := NewRing(8, 1)
	first := mkRec("tr", qlog.OutcomeError, 80)
	first.Error = "transient read fault"
	r.Commit(first)
	got, pinned := commit(r, mkRec("tr", qlog.OutcomeOK, 120))
	if !pinned {
		t.Fatal("retried trace not pinned")
	}
	if len(got.Attempts) != 2 {
		t.Fatalf("attempts = %d, want 2 (one trace, N attempts)", len(got.Attempts))
	}
	if got.Attempts[0].Error != "transient read fault" || got.Attempts[1].Outcome != qlog.OutcomeOK {
		t.Fatalf("attempt chain out of order: %+v", got.Attempts)
	}
	// Top-level fields follow the final attempt; pin reasons accumulate.
	if got.Outcome != qlog.OutcomeOK || got.DurationUs != 120 || got.Error != "" {
		t.Fatalf("merged top-level = %s/%d", got.Outcome, got.DurationUs)
	}
	for _, want := range []string{PinError, PinRetried} {
		if !strings.Contains(reasons(got), want) {
			t.Fatalf("reasons %q missing %q", reasons(got), want)
		}
	}
	if r.Len() != 1 {
		t.Fatalf("ring holds %d traces, want 1", r.Len())
	}
}

// TestTopLevelIsLatestRecord: the trace's top-level view is its latest
// record without the span tree and node profile (those stay on the
// attempt), and a served record adds no attempt.
func TestTopLevelIsLatestRecord(t *testing.T) {
	r := NewRing(8, 1)
	run := mkRec("run", qlog.OutcomeOK, 40)
	run.Engine = "sortscan"
	run.Span = &obs.SpanSnapshot{Name: "query"}
	run.Nodes = []qlog.NodeProfile{{NodeStats: obs.NodeStats{Node: "n"}}}
	got, _ := commit(r, run)
	if got.Engine != "sortscan" || got.Span != nil || got.Nodes != nil {
		t.Fatalf("top level = %+v, want the record minus span and nodes", got.Record)
	}
	if len(got.Attempts) != 1 || got.Attempts[0].Span == nil || len(got.Attempts[0].Nodes) != 1 {
		t.Fatalf("attempt lost its span or profile: %+v", got.Attempts)
	}
	hit := mkRec("hit", qlog.OutcomeCacheHit, 3)
	hit.ServedFrom, hit.SourceTraceID = "cache", "run"
	got, _ = commit(r, hit)
	if got.ServedFrom != "cache" || got.SourceTraceID != "run" || len(got.Attempts) != 0 {
		t.Fatalf("served trace = %+v, want served_from=cache and 0 attempts", got)
	}
}

func TestSlowPinAgainstOperatorThreshold(t *testing.T) {
	r := NewRing(8, 1)
	r.SetSlowThreshold(1000)
	fast, _ := commit(r, mkRec("fast", qlog.OutcomeOK, 500))
	if fast.Pinned {
		t.Fatal("fast trace pinned")
	}
	slow, pinned := commit(r, mkRec("slow", qlog.OutcomeOK, 1500))
	if !pinned || reasons(slow) != PinSlow {
		t.Fatalf("slow trace: pinned=%v reasons=%q", pinned, reasons(slow))
	}
	log := r.Slow(0)
	if len(log) != 1 || log[0].TraceID != "slow" {
		t.Fatalf("slow log = %+v, want [slow]", log)
	}
	if log[0].Path != "/debug/aw/traces/slow" {
		t.Fatalf("slow log path = %q", log[0].Path)
	}
}

func TestInternalP99Fallback(t *testing.T) {
	r := NewRing(512, 1)
	// Fill the window with uniform fast traces, then one outlier: once
	// the window has signal, the outlier lands at/above its p99.
	for i := 0; i < minSlowWindow; i++ {
		r.Commit(mkRec(fmt.Sprintf("w%d", i), qlog.OutcomeOK, 100))
	}
	if th := r.SlowThresholdUs(); th == 0 {
		t.Fatal("p99 fallback threshold still 0 after warm-up")
	}
	got, pinned := commit(r, mkRec("outlier", qlog.OutcomeOK, 10000))
	if !pinned || !strings.Contains(reasons(got), PinSlow) {
		t.Fatalf("outlier: pinned=%v reasons=%q", pinned, reasons(got))
	}
}

func TestEvictionPrefersUnpinned(t *testing.T) {
	r := NewRing(3, 1)
	r.Commit(mkRec("bad1", qlog.OutcomeError, 10))
	r.Commit(mkRec("ok1", qlog.OutcomeOK, 10))
	r.Commit(mkRec("bad2", qlog.OutcomeError, 10))
	r.Commit(mkRec("bad3", qlog.OutcomeError, 10)) // evicts ok1, not bad1
	if _, ok := r.Get("ok1"); ok {
		t.Fatal("unpinned trace survived eviction over pinned ones")
	}
	for _, id := range []string{"bad1", "bad2", "bad3"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("pinned trace %s evicted while an unpinned one existed", id)
		}
	}
	// All pinned: the oldest pinned trace goes (bounded memory wins).
	r.Commit(mkRec("bad4", qlog.OutcomeError, 10))
	if _, ok := r.Get("bad1"); ok {
		t.Fatal("oldest pinned trace survived an all-pinned eviction")
	}
	if r.Len() != 3 {
		t.Fatalf("ring holds %d, want cap 3", r.Len())
	}
}

func TestRestoreLastWordWins(t *testing.T) {
	r := NewRing(8, 1)
	r.Restore([]qlog.Record{*mkRec("p", qlog.OutcomeError, 100)})
	// A later restore of the same ID replaces the chain whole; it never
	// appends to the one the ring holds.
	r.Restore([]qlog.Record{*mkRec("p", qlog.OutcomeError, 100), *mkRec("p", qlog.OutcomeOK, 150)})
	got, ok := r.Get("p")
	if !ok || len(got.Attempts) != 2 || got.Outcome != qlog.OutcomeOK {
		t.Fatalf("restored trace = %+v", got)
	}
	if r.Len() != 1 {
		t.Fatalf("restore of the same ID duplicated the entry: len=%d", r.Len())
	}
	// Reasons are re-derived from the chain; a restored chain nothing
	// else explains was pinned for being slow.
	if !got.Pinned || reasons(got) != PinError+","+PinRetried {
		t.Fatalf("restored reasons = %q", reasons(got))
	}
	r.Restore([]qlog.Record{*mkRec("s", qlog.OutcomeOK, 900)})
	if s, _ := r.Get("s"); !s.Pinned || reasons(s) != PinSlow {
		t.Fatalf("restored healthy chain: pinned=%v reasons=%q", s.Pinned, reasons(s))
	}
}

func TestWriteJSONEndpoints(t *testing.T) {
	r := NewRing(8, 1)
	r.SetSlowThreshold(100)
	r.Commit(mkRec("a", qlog.OutcomeBudget, 500))
	b, err := json.Marshal(Page{Total: r.Len(), SlowThresholdUs: r.SlowThresholdUs(), Traces: r.List(0)})
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Total  int              `json:"total"`
		Traces []map[string]any `json:"traces"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 1 || len(list.Traces) != 1 {
		t.Fatalf("list payload = %s", b)
	}
	// A row is the record header with the attempt count in place of the
	// attempt chain, and the trace's link.
	row := list.Traces[0]
	if row["trace_id"] != "a" || row["outcome"] != qlog.OutcomeBudget || row["pinned"] != true ||
		row["attempts"] != 1.0 || row["path"] != "/debug/aw/traces/a" || row["duration_us"] != 500.0 {
		t.Fatalf("list row = %v", row)
	}
	if _, ok := row["span"]; ok {
		t.Fatalf("list row carries a span tree: %v", row)
	}
	if b, _ := json.Marshal(Page{Traces: NewRing(8, 1).Slow(0)}); !bytes.Contains(b, []byte(`"traces":[]`)) {
		t.Fatalf("empty slow log = %s, want an empty list", b)
	}

	got, found := r.Get("a")
	if !found {
		t.Fatal("retained trace not found")
	}
	if b, err = json.Marshal(got); err != nil {
		t.Fatal(err)
	}
	var tr Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != "a" || len(tr.Attempts) != 1 {
		t.Fatalf("trace payload = %+v", tr)
	}
	if _, found := r.Get("missing"); found {
		t.Fatal("missing trace reported found")
	}
}

// TestConcurrentCommitSnapshotEvict drives commits (fresh IDs, merges,
// restores) against readers and JSON snapshots from many goroutines;
// run under -race this is the ring's concurrency proof.
func TestConcurrentCommitSnapshotEvict(t *testing.T) {
	r := NewRing(32, 4)
	const writers, readers, per = 8, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				outcome := qlog.OutcomeOK
				if i%3 == 0 {
					outcome = qlog.OutcomeError
				}
				// A shared ID across writers exercises attempt merging.
				id := fmt.Sprintf("w%d-%d", w, i)
				if i%7 == 0 {
					id = fmt.Sprintf("shared-%d", i)
				}
				r.Commit(mkRec(id, outcome, int64(50+i)))
				if i%11 == 0 {
					r.Restore([]qlog.Record{*mkRec(fmt.Sprintf("restored-%d-%d", w, i), qlog.OutcomeBudget, 10)})
				}
				if i%13 == 0 {
					r.SetSlowThreshold(int64(i))
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Slow(10)
				r.Get(fmt.Sprintf("shared-%d", i%per))
				_, _ = json.Marshal(r.List(5))
			}
		}()
	}
	wg.Wait()
	if r.Len() > 32 {
		t.Fatalf("ring exceeded its capacity: %d > 32", r.Len())
	}
	// Mutating a returned copy must not corrupt the retained trace.
	if got, ok := r.Get("shared-0"); ok {
		got.PinReasons = append(got.PinReasons[:0], "clobbered")
		got.Attempts = nil
		again, _ := r.Get("shared-0")
		if len(again.PinReasons) > 0 && again.PinReasons[0] == "clobbered" {
			t.Fatal("Get returned a shared slice, not a copy")
		}
	}
}

func TestNewTraceIDShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if len(id) != 32 || !isHex(id) {
			t.Fatalf("trace ID %q not 32 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	h := FormatTraceparent(id)
	got, ok := ParseTraceparent(h)
	if !ok || got != id {
		t.Fatalf("round trip %q -> %q (ok=%v), want %q", h, got, ok, id)
	}
	for _, bad := range []string{
		"",
		"00-short-0123456789abcdef-01",
		"00-" + strings.Repeat("0", 32) + "-0123456789abcdef-01", // all-zero trace ID
		"ff-" + id + "-0123456789abcdef-01",                      // forbidden version
		"00-" + id + "-xyz-01",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("accepted invalid traceparent %q", bad)
		}
	}
	// Uppercase hex and extra future fields are tolerated.
	up := "00-" + strings.ToUpper(id) + "-0123456789ABCDEF-01-extra"
	if got, ok := ParseTraceparent(up); !ok || got != id {
		t.Fatalf("uppercase/extended traceparent rejected: %q -> %q %v", up, got, ok)
	}
}
