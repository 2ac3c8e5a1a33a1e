package qlog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"awra/internal/obs"
)

func rec(label, outcome, collFP string, nodes ...NodeProfile) *Record {
	return &Record{
		Time:         time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Label:        label,
		QueryFP:      "qfp",
		CollectionFP: collFP,
		Engine:       "sortscan",
		Outcome:      outcome,
		DurationUs:   1234,
		Nodes:        nodes,
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []*Record{
		rec("q1", OutcomeOK, "c1", NodeProfile{NodeStats: obs.NodeStats{Node: "n", CellsFinalized: 42, EstCells: 10}, Sig: "s1", EstSource: "assumed"}),
		rec("q2", OutcomeBudget, "c1"),
		rec("q3", OutcomeError, "c2"),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	skipped, err := Replay(dir, func(r *Record) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines", skipped)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label || got[i].Outcome != want[i].Outcome {
			t.Errorf("record %d: got %q/%q, want %q/%q", i, got[i].Label, got[i].Outcome, want[i].Label, want[i].Outcome)
		}
	}
	if got[0].Nodes[0].CellsFinalized != 42 || got[0].Nodes[0].Sig != "s1" {
		t.Errorf("node profile did not round-trip: %+v", got[0].Nodes[0])
	}
}

func TestReplaySurvivesAppendAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.Append(rec("first", OutcomeOK, "c1"))
	l.Close()
	// A new process opens the same dir and appends more.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(rec("second", OutcomeOK, "c1"))
	l2.Close()
	var labels []string
	if _, err := Replay(dir, func(r *Record) { labels = append(labels, r.Label) }); err != nil {
		t.Fatal(err)
	}
	if strings.Join(labels, ",") != "first,second" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestRotationKeepsNewestAndBoundsFiles(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.MaxBytes = 256 // force frequent rotation
	l.MaxFiles = 3
	const total = 60
	for i := 0; i < total; i++ {
		if err := l.Append(rec("q"+string(rune('A'+i%26)), OutcomeOK, "c1")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	ents, _ := os.ReadDir(dir)
	if len(ents) > 3 {
		t.Fatalf("rotation left %d files, want <= 3", len(ents))
	}
	var n int
	if _, err := Replay(dir, func(*Record) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n >= total {
		t.Fatalf("replayed %d records, want 0 < n < %d (oldest dropped)", n, total)
	}
}

func TestReplaySkipsTornLine(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.Append(rec("good", OutcomeOK, "c1"))
	l.Close()
	// Simulate a crash mid-write: a torn trailing line.
	f, _ := os.OpenFile(filepath.Join(dir, "history.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"time":"2026-08-08T12:`)
	f.Close()
	var n int
	skipped, err := Replay(dir, func(*Record) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || skipped != 1 {
		t.Fatalf("n=%d skipped=%d, want 1/1", n, skipped)
	}
}

// TestAppendAfterTornTailSurvives: the process after a crash opens a
// log whose last line is torn; its first record must start a line of
// its own, not be glued onto the fragment and skipped with it.
func TestAppendAfterTornTailSurvives(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.Append(rec("good", OutcomeOK, "c1"))
	l.Close()
	f, _ := os.OpenFile(filepath.Join(dir, "history.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"time":"2026-08-08T12:`)
	f.Close()
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(rec("next", OutcomeOK, "c1")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	var labels []string
	skipped, err := Replay(dir, func(r *Record) { labels = append(labels, r.Label) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(labels, ",") != "good,next" || skipped != 1 {
		t.Fatalf("labels=%v skipped=%d, want [good next] with the fragment skipped", labels, skipped)
	}
}

func TestReplayMissingDir(t *testing.T) {
	n := 0
	skipped, err := Replay(filepath.Join(t.TempDir(), "nope"), func(*Record) { n++ })
	if err != nil || n != 0 || skipped != 0 {
		t.Fatalf("missing dir: n=%d skipped=%d err=%v", n, skipped, err)
	}
}

func TestStoreObserveAndLookup(t *testing.T) {
	s := NewStore()
	s.Observe(rec("q", OutcomeOK, "c1",
		NodeProfile{NodeStats: obs.NodeStats{Node: "a", CellsFinalized: 100}, Sig: "sa"},
		NodeProfile{NodeStats: obs.NodeStats{Node: "b", CellsFinalized: 7}, Sig: "sb"},
		NodeProfile{NodeStats: obs.NodeStats{Node: "skip", CellsFinalized: 5}}, // no sig
	))
	if m, ok := s.Lookup("c1", "sa"); !ok || m.Cells != 100 || m.Runs != 1 {
		t.Fatalf("sa: %+v ok=%v", m, ok)
	}
	if _, ok := s.Lookup("c1", "missing"); ok {
		t.Fatal("lookup of unknown sig succeeded")
	}
	if _, ok := s.Lookup("c2", "sa"); ok {
		t.Fatal("lookup crossed collections")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	// Latest measurement wins.
	s.Observe(rec("q", OutcomeOK, "c1", NodeProfile{NodeStats: obs.NodeStats{Node: "a", CellsFinalized: 120}, Sig: "sa"}))
	if m, _ := s.Lookup("c1", "sa"); m.Cells != 120 || m.Runs != 2 {
		t.Fatalf("after second run: %+v", m)
	}
}

func TestStoreIgnoresPartialRuns(t *testing.T) {
	s := NewStore()
	for _, outcome := range []string{OutcomeBudget, OutcomeCanceled, OutcomeError} {
		s.Observe(rec("q", outcome, "c1", NodeProfile{NodeStats: obs.NodeStats{Node: "a", CellsFinalized: 100}, Sig: "sa"}))
	}
	if s.Len() != 0 {
		t.Fatalf("partial runs contributed %d entries", s.Len())
	}
	var nilStore *Store
	nilStore.Observe(rec("q", OutcomeOK, "c1"))
	if _, ok := nilStore.Lookup("c1", "sa"); ok {
		t.Fatal("nil store lookup succeeded")
	}
}
