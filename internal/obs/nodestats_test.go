package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestMergeNodeStats(t *testing.T) {
	r := New()
	r.MergeNodeStats(NodeStats{
		Node: "cnt", RecordsIn: 100, RecordsOut: 10,
		CellsCreated: 12, CellsFinalized: 12, FlushBatches: 3, LiveCellsHWM: 5,
		Arcs: []ArcStats{{Label: "fact", Advances: 10, HeldBack: 2}},
	})
	// A second publish (another shard / pass) adds counters, maxes HWM,
	// and merges arcs by label.
	r.MergeNodeStats(NodeStats{
		Node: "cnt", RecordsIn: 50, CellsCreated: 6, LiveCellsHWM: 9, EstCells: 42,
		Arcs: []ArcStats{{Label: "fact", Advances: 5}, {Label: "base", HeldBack: 1}},
	})
	r.MergeNodeStats(NodeStats{Node: "roll", RecordsIn: 7})

	ns := r.NodeStats()
	if len(ns) != 2 {
		t.Fatalf("want 2 nodes, got %d", len(ns))
	}
	// Sorted by node name.
	if ns[0].Node != "cnt" || ns[1].Node != "roll" {
		t.Fatalf("unexpected order: %q, %q", ns[0].Node, ns[1].Node)
	}
	c := ns[0]
	if c.RecordsIn != 150 || c.CellsCreated != 18 || c.LiveCellsHWM != 9 {
		t.Errorf("counters add / HWM maxes: got in=%d created=%d hwm=%d", c.RecordsIn, c.CellsCreated, c.LiveCellsHWM)
	}
	if c.EstCells != 42 {
		t.Errorf("EstCells: got %v", c.EstCells)
	}
	if len(c.Arcs) != 2 || c.Arcs[0].Label != "fact" || c.Arcs[0].Advances != 15 || c.Arcs[0].HeldBack != 2 {
		t.Errorf("arc merge: %+v", c.Arcs)
	}
}

func TestNodeStatsNilAndIsolation(t *testing.T) {
	var r *Recorder
	r.MergeNodeStats(NodeStats{Node: "x", RecordsIn: 1}) // must not panic
	r.MergeNodeStats(NodeStats{Node: "x", EstCells: 5})
	if got := r.NodeStats(); got != nil {
		t.Fatalf("nil recorder NodeStats: got %v", got)
	}

	// The returned slice is a deep copy: mutating it must not corrupt
	// the registry.
	r2 := New()
	r2.MergeNodeStats(NodeStats{Node: "a", Arcs: []ArcStats{{Label: "l", Advances: 1}}})
	snap := r2.NodeStats()
	snap[0].Arcs[0].Advances = 999
	if r2.NodeStats()[0].Arcs[0].Advances != 1 {
		t.Fatal("NodeStats must deep-copy arcs")
	}
}

func TestPrometheusNodeFamilies(t *testing.T) {
	r := New()
	r.MergeNodeStats(NodeStats{
		Node: "cnt", RecordsIn: 100, RecordsOut: 10, CellsCreated: 12,
		CellsFinalized: 12, FlushBatches: 3, LiveCellsHWM: 5,
		Arcs: []ArcStats{{Label: `fa"ct\n`, Advances: 10, HeldBack: 2}},
	})
	r.MergeNodeStats(NodeStats{Node: "roll", RecordsIn: 10, CellsFinalized: 2})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Golden lines of the labeled family, spec-compliant: HELP and TYPE
	// once per family, label values escaped.
	for _, want := range []string{
		"# HELP awra_node_records_in ",
		"# TYPE awra_node_records_in counter",
		`awra_node_records_in{node="cnt"} 100`,
		`awra_node_records_in{node="roll"} 10`,
		"# TYPE awra_node_live_cells_hwm gauge",
		`awra_node_live_cells_hwm{node="cnt"} 5`,
		"# TYPE awra_node_arc_advances counter",
		`awra_node_arc_advances{node="cnt",arc="fa\"ct\\n"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE awra_node_records_in counter"); n != 1 {
		t.Errorf("TYPE header must appear once per family, got %d", n)
	}
	// A family with no nonzero series stays silent.
	if strings.Contains(out, "node_est_cells") {
		t.Errorf("empty family must not emit headers:\n%s", out)
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabel: %q", got)
	}
}

// TestConcurrentNodeStatsPublish stresses many shard goroutines
// publishing node stats through At() views into one shared registry
// while another goroutine snapshots — run with -race.
func TestConcurrentNodeStatsPublish(t *testing.T) {
	r := New()
	root := r.Start(SpanQuery)
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := r.At(root)
			for i := 0; i < rounds; i++ {
				sub.MergeNodeStats(NodeStats{
					Node: "cnt", RecordsIn: 1, CellsCreated: 1, LiveCellsHWM: int64(w + 1),
					Arcs: []ArcStats{{Label: "fact", Advances: 1}},
				})
				sub.MergeNodeStats(NodeStats{Node: "cnt", EstCells: float64(w)})
			}
		}(w)
	}
	// Snapshot-while-publishing.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.NodeStats()
			_ = r.Snapshot()
			var b strings.Builder
			_ = r.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done
	root.End()
	ns := r.NodeStats()
	if len(ns) != 1 || ns[0].RecordsIn != workers*rounds {
		t.Fatalf("lost updates: %+v", ns)
	}
	if ns[0].Arcs[0].Advances != workers*rounds {
		t.Fatalf("lost arc updates: %+v", ns[0].Arcs)
	}
	if ns[0].LiveCellsHWM != workers {
		t.Fatalf("HWM should be max across workers: %d", ns[0].LiveCellsHWM)
	}
}

// TestEngineStatsPublishWholeVocabulary: Publish registers all 13
// engine metrics even when every count is zero, so every engine exports
// one set of names.
func TestEngineStatsPublishWholeVocabulary(t *testing.T) {
	r := New()
	EngineStats{}.Publish(r)
	snap := r.Snapshot()
	for _, m := range []string{
		MRecordsScanned, MFactScans, MPasses, MCellsCreated, MCellsFinalized,
		MFlushBatches, MWatermarkAdvances, MSpillEvents, MSpillBytes,
		MSpilledEntries, MSortRuns,
	} {
		if v, ok := snap.Counters[m]; !ok || v != 0 {
			t.Errorf("counter %q = %d, present %v; want a registered 0", m, v, ok)
		}
	}
	for _, m := range []string{GLiveCellsHWM, GHashBytesHWM} {
		if v, ok := snap.Gauges[m]; !ok || v != 0 {
			t.Errorf("gauge %q = %d, present %v; want a registered 0", m, v, ok)
		}
	}
	if len(snap.Counters)+len(snap.Gauges) != 13 {
		t.Errorf("published %d counters and %d gauges, want 13 names", len(snap.Counters), len(snap.Gauges))
	}
}

// TestEngineStatsAddFolds: counts add, high-water marks take the
// larger, and the node list appends, folded by name on read.
func TestEngineStatsAddFolds(t *testing.T) {
	a := EngineStats{Records: 3, PeakCells: 7, Nodes: []NodeStats{{Node: "x", CellsFinalized: 2, LiveCellsHWM: 5}}}
	a.Add(EngineStats{Records: 4, PeakCells: 2, Nodes: []NodeStats{{Node: "x", CellsFinalized: 1, LiveCellsHWM: 9}, {Node: "y", RecordsIn: 1}}})
	if a.Records != 7 || a.PeakCells != 7 || len(a.Nodes) != 3 {
		t.Fatalf("Add = %+v", a)
	}
	tot := a.NodeTotals()
	if x := tot["x"]; x.CellsFinalized != 3 || x.LiveCellsHWM != 9 || tot["y"].RecordsIn != 1 {
		t.Fatalf("NodeTotals = %+v", tot)
	}
	r := New()
	a.Publish(r)
	if got := r.NodeStats(); len(got) != 2 || got[0].CellsFinalized != 3 {
		t.Fatalf("published nodes = %+v", got)
	}
}
