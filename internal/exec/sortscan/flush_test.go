package sortscan

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/plan"
	"awra/internal/storage"
)

// q1Workflow is the paper's Q1 over the synthetic cube (bench.Q1Workflow
// restated; that package imports this one): seven child-granularity
// counts, each rolled up to the parent granularity by counting child
// regions, summed into one measure.
func q1Workflow(tb testing.TB, s *model.Schema) *core.Compiled {
	tb.Helper()
	all := model.LevelALL
	children := []model.Gran{
		{0, 1, all, all}, {0, all, 1, all}, {0, all, all, 1},
		{1, 0, all, all}, {1, all, 0, all}, {1, all, all, all}, {0, 0, all, all},
	}
	w := core.NewWorkflow(s)
	var ups []string
	for i, g := range children {
		child, up := fmt.Sprintf("child%d", i+1), fmt.Sprintf("per_parent%d", i+1)
		w.Basic(child, g, agg.Count, -1)
		w.Rollup(up, model.Gran{2, all, all, all}, child, agg.Count)
		ups = append(ups, up)
	}
	c, err := w.Combine("q1", ups, core.SumOf()).Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// q1SortKey is the order the repo's benchmark runs Q1 under.
var q1SortKey = model.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 0}}

// TestFlushAllocationBound: a finalized cell costs no heap object, no
// string and no boxed aggregator. Q1 over a 20k-row cube finalizes about
// 110k cells; the whole run — external sort, plan, tables and all — must
// stay under 0.1 mallocs per finalized cell. The per-cell flush path
// this replaced took 2.0 there, so one reintroduced allocation per
// cell, in any of collection, sort, delivery or logging, fails here and
// not in a later benchmark run. Q1 delivers into roll-ups only;
// mixedWorkflow holds the filtered, sliding, parent/child and combine
// deliveries to the same bound.
func TestFlushAllocationBound(t *testing.T) {
	dir := t.TempDir()
	fact := filepath.Join(dir, "cube.rec")
	synth, err := gen.Synth(fact, 20000, gen.SynthConfig{Seed: 2006})
	if err != nil {
		t.Fatal(err)
	}
	q1 := q1Workflow(t, synth)
	net := netSchema(t)
	mixed, mixedPlan := mixedWorkflow(t, net)
	mixedRecs := mem(t, net, mixedRecords(net, mixedPlan, 60000, 20, 32))
	for _, tc := range []struct {
		name string
		run  func(rec *obs.Recorder) (*scan.Result, error)
	}{
		{"q1", func(rec *obs.Recorder) (*scan.Result, error) {
			return Run(q1, scan.FileInput(fact), Options{
				EngineOptions: scan.EngineOptions{TempDir: dir, Recorder: rec}, SortKey: q1SortKey,
			})
		}},
		{"mixed", func(rec *obs.Recorder) (*scan.Result, error) {
			return Run(mixed, mixedRecs, Options{
				EngineOptions: scan.EngineOptions{Recorder: rec}, SortKey: mixedPlan.SortKey,
			})
		}},
	} {
		var finalized int64
		mallocs := testing.AllocsPerRun(3, func() {
			res, err := tc.run(obs.New())
			if err != nil {
				t.Fatal(err)
			}
			finalized = res.Stats.CellsFinalized
		})
		if finalized < 50000 {
			t.Fatalf("%s: only %d cells finalized; the bound below needs the per-cell work to dominate", tc.name, finalized)
		}
		t.Logf("%s: %.0f mallocs, %d finalized cells", tc.name, mallocs, finalized)
		if perCell := mallocs / float64(finalized); perCell >= 0.1 {
			t.Errorf("%s: %.0f mallocs for %d finalized cells: %.3f per cell, want < 0.1", tc.name, mallocs, finalized, perCell)
		}
	}
}

// flushBench builds an engine whose one basic node holds a single flush
// batch of `cells` live cells, every one of them final.
func flushBench(b *testing.B, uniform bool, cells int) (*engine, *node, []scan.Record) {
	b.Helper()
	s, err := gen.SynthSchema(gen.SynthConfig{})
	if err != nil {
		b.Fatal(err)
	}
	all := model.LevelALL
	// Cells are (A1:L0, A2:L1) regions, 100 × 100 of them inside one
	// A1:L2 region. Under <A1:L2, A2:L0> the node's output order is
	// <A1:L2, A2:L1>, which splits the batch into 100 projection classes;
	// under <A1:L2> alone it is <A1:L2>, one class.
	key := model.SortKey{{Dim: 0, Lvl: 2}}
	if !uniform {
		key = q1SortKey
	}
	c, err := core.NewWorkflow(s).Basic("child", model.Gran{0, 1, all, all}, agg.Count, -1).Compile()
	if err != nil {
		b.Fatal(err)
	}
	pl, err := plan.Build(c, key, nil)
	if err != nil {
		b.Fatal(err)
	}
	if got := len(pl.Nodes[0].OutOrder); uniform != (got == 1) {
		b.Fatalf("output order %s has %d parts", pl.Nodes[0].OutOrder.String(s), got)
	}
	// Records in an order that is neither the key order nor the emission
	// order, as a scan under the sort key's tiebreak delivers them.
	rows := make([]scan.Record, cells)
	for i := range rows {
		j := (i * 7919) % cells
		row := make([]byte, 8*5) // four dimensions, one measure
		binary.LittleEndian.PutUint64(row, uint64(j%100))
		binary.LittleEndian.PutUint64(row[8:], uint64(j/100*10))
		rows[i] = row
	}
	e := newEngine(c, pl, true)
	return e, e.nodes[0], rows
}

// BenchmarkFlush times one flush batch of 4096 cells from "every cell is
// final" to "rows are in the emission log": collection, sort, key
// string, values, compaction. ns/op ÷ 4096 is the flush path's cost per
// finalized cell; allocs/op is per batch.
func BenchmarkFlush(b *testing.B) {
	for _, uniform := range []bool{true, false} {
		name := "nonuniform"
		if uniform {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			const cells = 4096
			e, n, batch := flushBench(b, uniform, cells)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for at := 0; at < len(batch); at += scanStride {
					if err := e.scanRows([]*node{n}, nil, batch[at:min(at+scanStride, len(batch))]); err != nil {
						b.Fatal(err)
					}
				}
				if n.tab.Len() != cells {
					b.Fatalf("%d live cells, want %d", n.tab.Len(), cells)
				}
				n.log = n.log[:0]
				b.StartTimer()
				if err := e.finalizeNode(n, true); err != nil {
					b.Fatal(err)
				}
			}
			if _, rows := buildRows(n.tab.KeyLen(), n.log); rows != cells {
				b.Fatalf("flush logged %d rows, want %d", rows, cells)
			}
		})
	}
}

// TestCombineShardsDetectsSharedRegion: shard results that both
// produced one region of a nesting measure mean the shard validation
// was unsound — each shard's value is partial — and combineShards must
// refuse, naming the measure and the region. The same two engines with
// disjoint halves combine cleanly.
func TestCombineShardsDetectsSharedRegion(t *testing.T) {
	s := netSchema(t)
	day, _ := s.Dim(0).LevelByName("Day")
	all := model.LevelALL
	gDay, _ := s.Normalize(model.Gran{day, all, all, all})
	c, err := core.NewWorkflow(s).Basic("perDay", gDay, agg.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := model.SortKey{{Dim: 0, Lvl: day}}.Normalize(s)
	pl, err := plan.Build(c, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := netRecords(400, 41) // four days
	storage.SortRecords(recs, func(a, b *model.Record) bool { return key.RecordLess(s, a, b) })
	var cut int // first record of the third day
	for days, i := 1, 1; days < 3; i++ {
		if s.Dim(0).Up(0, day, recs[i].Dims[0]) != s.Dim(0).Up(0, day, recs[i-1].Dims[0]) {
			days++
			cut = i
		}
	}
	shard := func(part []model.Record) *engine {
		src, err := mem(t, s, part).Open(scan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := runSortedStates(c, pl, src, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	res, err := combineShards(c, nil, []*engine{shard(recs[:cut]), shard(recs[cut:])}, nil)
	if err != nil {
		t.Fatalf("disjoint shards: %v", err)
	}
	whole, err := Run(c, mem(t, s, recs), Options{SortKey: key})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tables["perDay"].Equal(whole.Tables["perDay"], 0) {
		t.Error("disjoint shards combine to a table different from the serial run's")
	}

	// Split the third day itself between the shards.
	split := cut + 10
	third := whole.Tables["perDay"].Codec.Format(
		whole.Tables["perDay"].Codec.FromBase(recs[cut].Dims))
	_, err = combineShards(c, nil, []*engine{shard(recs[:split]), shard(recs[split:])}, nil)
	if err == nil {
		t.Fatal("a region produced by two shards combined without error")
	}
	for _, want := range []string{`"perDay"`, third, "two shards"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}
