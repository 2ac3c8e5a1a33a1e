package qlog

// Regression tests for the cache_hit outcome and the served_from
// provenance fields: a query answered from the serve layer's result
// cache scans nothing and finalizes nothing, so its history record
// must never feed the measured-statistics store — even if the record
// (adversarially) carries node profiles with non-zero cell counts.

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"awra/internal/obs"
)

func TestStoreIgnoresCacheHitRecords(t *testing.T) {
	s := NewStore()
	now := time.Now()
	s.Observe(&Record{
		Time: now, CollectionFP: "c1", Outcome: OutcomeOK,
		Nodes: []NodeProfile{{NodeStats: obs.NodeStats{Node: "Count", CellsFinalized: 42}, Sig: "sigA"}},
	})
	if s.Len() != 1 {
		t.Fatalf("Len = %d after one OK record, want 1", s.Len())
	}
	m, ok := s.Lookup("c1", "sigA")
	if !ok || m.Cells != 42 || m.Runs != 1 {
		t.Fatalf("Lookup(sigA) = %+v, %v", m, ok)
	}

	// A cache hit, even one adversarially claiming node cell counts,
	// contributes nothing: no new signatures, no updates to old ones.
	s.Observe(&Record{
		Time: now.Add(time.Minute), CollectionFP: "c1",
		Outcome: OutcomeCacheHit, ServedFrom: "cache", SourceTraceID: "t-src",
		Nodes: []NodeProfile{
			{NodeStats: obs.NodeStats{Node: "Count", CellsFinalized: 7}, Sig: "sigA"},
			{NodeStats: obs.NodeStats{Node: "Busy", CellsFinalized: 9}, Sig: "sigB"},
		},
	})
	if s.Len() != 1 {
		t.Fatalf("Len = %d after a cache_hit record, want 1 (unchanged)", s.Len())
	}
	if m, _ := s.Lookup("c1", "sigA"); m.Cells != 42 || m.Runs != 1 {
		t.Fatalf("cache_hit record skewed sigA: %+v", m)
	}
	if _, ok := s.Lookup("c1", "sigB"); ok {
		t.Fatal("cache_hit record introduced a measurement for sigB")
	}
}

func TestRecordServedFromRoundTrip(t *testing.T) {
	rec := &Record{
		RequestID: "r1", Outcome: OutcomeCacheHit,
		ServedFrom: "cache", SourceTraceID: "trace-src", DurationUs: 5,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"served_from":"cache"`, `"source_trace_id":"trace-src"`, `"outcome":"cache_hit"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("serialized record missing %s:\n%s", want, b)
		}
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ServedFrom != "cache" || back.SourceTraceID != "trace-src" || back.Outcome != OutcomeCacheHit {
		t.Fatalf("round trip lost provenance: %+v", back)
	}

	// Ordinary runs stay clean: the provenance fields are omitted.
	plain, err := json.Marshal(&Record{RequestID: "r2", Outcome: OutcomeOK})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "served_from") || strings.Contains(string(plain), "source_trace_id") {
		t.Fatalf("plain record carries serve provenance fields:\n%s", plain)
	}
}

// TestReplayedCacheHitsStayOutOfStats pins the restart path: a log
// holding both executed runs and cache hits replays into a store that
// reflects only the executed runs.
func TestReplayedCacheHitsStayOutOfStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hist")
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ok := &Record{Time: time.Now(), RequestID: "a", CollectionFP: "c1", Outcome: OutcomeOK,
		Nodes: []NodeProfile{{NodeStats: obs.NodeStats{Node: "Count", CellsFinalized: 11}, Sig: "sigA"}}}
	hit := &Record{Time: time.Now(), RequestID: "b", CollectionFP: "c1", Outcome: OutcomeCacheHit,
		ServedFrom: "cache", Nodes: []NodeProfile{{NodeStats: obs.NodeStats{Node: "Count", CellsFinalized: 99}, Sig: "sigC"}}}
	for _, r := range []*Record{ok, hit} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s := NewStore()
	n := 0
	if _, err := Replay(dir, func(r *Record) { s.Observe(r); n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d measurements after replay, want 1", s.Len())
	}
	if _, ok := s.Lookup("c1", "sigC"); ok {
		t.Fatal("replayed cache_hit fed the store")
	}
}
