package obs

import (
	"testing"
)

// TestNodeStatsAdd pins the node merge semantics: a second run of a
// node (another shard or pass) adds counters, maxes the high-water mark
// and the estimate, and merges arcs by label.
func TestNodeStatsAdd(t *testing.T) {
	c := NodeStats{
		Node: "cnt", RecordsIn: 100, RecordsOut: 10,
		CellsCreated: 12, CellsFinalized: 12, FlushBatches: 3, LiveCellsHWM: 5,
		Arcs: []ArcStats{{Label: "fact", Advances: 10, HeldBack: 2}},
	}
	c.Add(NodeStats{
		Node: "cnt", RecordsIn: 50, CellsCreated: 6, LiveCellsHWM: 9, EstCells: 42,
		Arcs: []ArcStats{{Label: "fact", Advances: 5}, {Label: "base", HeldBack: 1}},
	})
	c.Add(NodeStats{Node: "cnt", LiveCellsHWM: 4, EstCells: 7})
	if c.RecordsIn != 150 || c.RecordsOut != 10 || c.CellsCreated != 18 || c.FlushBatches != 3 || c.LiveCellsHWM != 9 {
		t.Errorf("counters add / HWM maxes: got in=%d out=%d created=%d batches=%d hwm=%d",
			c.RecordsIn, c.RecordsOut, c.CellsCreated, c.FlushBatches, c.LiveCellsHWM)
	}
	if c.EstCells != 42 {
		t.Errorf("EstCells: got %v", c.EstCells)
	}
	if len(c.Arcs) != 2 || c.Arcs[0].Label != "fact" || c.Arcs[0].Advances != 15 || c.Arcs[0].HeldBack != 2 ||
		c.Arcs[1].Label != "base" || c.Arcs[1].HeldBack != 1 {
		t.Errorf("arc merge: %+v", c.Arcs)
	}
}

// TestNodeStatsNilAndIsolation: the zero stats fold to no nodes, and
// the folded totals own their arcs — mutating them leaves the run's
// node list alone.
func TestNodeStatsNilAndIsolation(t *testing.T) {
	if got := (EngineStats{}).NodeTotals(); len(got) != 0 {
		t.Fatalf("zero stats NodeTotals: got %v", got)
	}
	st := EngineStats{Nodes: []NodeStats{{Node: "a", Arcs: []ArcStats{{Label: "l", Advances: 1}}}}}
	tot := st.NodeTotals()
	tot["a"].Arcs[0].Advances = 999
	if st.Nodes[0].Arcs[0].Advances != 1 {
		t.Fatal("NodeTotals must copy arcs")
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabel: %q", got)
	}
}

// TestEngineStatsPublishWholeVocabulary: Publish registers every
// metric name even when every count is zero — the engine vocabulary
// and the read, cell-table, shard and merge tallies — so every engine
// exports one set of names.
func TestEngineStatsPublishWholeVocabulary(t *testing.T) {
	r := New()
	EngineStats{}.Publish(r)
	snap := r.Snapshot()
	counters := []string{
		MRecordsScanned, MFactScans, MPasses, MCellsCreated, MCellsFinalized,
		MFlushBatches, MWatermarkAdvances, MSpillEvents, MSpillBytes,
		MSpilledEntries, MSortRuns, MScanChunks, MScanBytes, MCellTableGrows,
		MShardsPlanned, MHeapComparisons,
	}
	gauges := []string{
		GLiveCellsHWM, GHashBytesHWM, GScanBatchFill, GCellProbeHWM,
		GCellArenaBytes, GShardSkew,
	}
	for _, m := range counters {
		if v, ok := snap.Counters[m]; !ok || v != 0 {
			t.Errorf("counter %q = %d, present %v; want a registered 0", m, v, ok)
		}
	}
	for _, m := range gauges {
		if v, ok := snap.Gauges[m]; !ok || v != 0 {
			t.Errorf("gauge %q = %d, present %v; want a registered 0", m, v, ok)
		}
	}
	if got, want := len(snap.Counters)+len(snap.Gauges), len(counters)+len(gauges); got != want {
		t.Errorf("published %d counters and %d gauges, want %d names", len(snap.Counters), len(snap.Gauges), want)
	}
}

// TestEngineStatsAddFolds: counts add, high-water marks take the
// larger, the read fill folds over capacity, and the node list appends,
// folded by name on read. Publish writes the folded values.
func TestEngineStatsAddFolds(t *testing.T) {
	a := EngineStats{
		Records: 3, PeakCells: 7, ScanChunks: 1, ScanBytes: 900, ScanCapacity: 1000,
		CellGrows: 2, CellProbeHWM: 4, CellArenaBytes: 64, ShardsPlanned: 2, ShardSkew: 1500, HeapComparisons: 10,
		Nodes: []NodeStats{{Node: "x", CellsFinalized: 2, LiveCellsHWM: 5}},
	}
	a.Add(EngineStats{
		Records: 4, PeakCells: 2, ScanChunks: 1, ScanBytes: 100, ScanCapacity: 1000,
		CellGrows: 3, CellProbeHWM: 9, CellArenaBytes: 32, ShardsPlanned: 2, ShardSkew: 1100, HeapComparisons: 5,
		Nodes: []NodeStats{{Node: "x", CellsFinalized: 1, LiveCellsHWM: 9}, {Node: "y", RecordsIn: 1}},
	})
	if a.Records != 7 || a.PeakCells != 7 || len(a.Nodes) != 3 {
		t.Fatalf("Add = %+v", a)
	}
	if a.ScanChunks != 2 || a.ScanBytes != 1000 || a.FillPermille() != 500 {
		t.Errorf("reads: %d chunks, %d bytes, fill %d; want 2, 1000, 500", a.ScanChunks, a.ScanBytes, a.FillPermille())
	}
	if a.CellGrows != 5 || a.CellProbeHWM != 9 || a.CellArenaBytes != 64 {
		t.Errorf("cell tables: grows %d, probe hwm %d, arena %d; want 5, 9, 64", a.CellGrows, a.CellProbeHWM, a.CellArenaBytes)
	}
	if a.ShardsPlanned != 4 || a.ShardSkew != 1500 || a.HeapComparisons != 15 {
		t.Errorf("shards and merges: planned %d, skew %d, comparisons %d; want 4, 1500, 15", a.ShardsPlanned, a.ShardSkew, a.HeapComparisons)
	}
	tot := a.NodeTotals()
	if x := tot["x"]; x.CellsFinalized != 3 || x.LiveCellsHWM != 9 || tot["y"].RecordsIn != 1 {
		t.Fatalf("NodeTotals = %+v", tot)
	}
	r := New()
	a.Publish(r)
	snap := r.Snapshot()
	if snap.Counters[MScanChunks] != 2 || snap.Gauges[GScanBatchFill] != 500 || snap.Gauges[GCellProbeHWM] != 9 || snap.Gauges[GShardSkew] != 1500 {
		t.Errorf("published %v / %v", snap.Counters, snap.Gauges)
	}
}
