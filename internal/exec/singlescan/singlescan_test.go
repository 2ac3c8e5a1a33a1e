package singlescan

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/faultfs"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

func schema2(t *testing.T) *model.Schema {
	t.Helper()
	s, err := model.NewSchema([]*model.Dimension{
		model.FixedFanout("A", 3, 10),
		model.FixedFanout("B", 3, 10),
	}, "m")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func records(n int, seed int64, nulls bool) []model.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]model.Record, n)
	for i := range recs {
		v := float64(rng.Intn(10))
		if nulls && rng.Intn(5) == 0 {
			v = agg.Null()
		}
		recs[i] = model.Record{
			Dims: []int64{rng.Int63n(1000), rng.Int63n(1000)},
			Ms:   []float64{v},
		}
	}
	return recs
}

func compile(t *testing.T, s *model.Schema, build func(*core.Workflow)) *core.Compiled {
	t.Helper()
	w := core.NewWorkflow(s)
	build(w)
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBasicCounts(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("cnt", model.Gran{1, model.LevelALL}, agg.Count, -1)
	})
	recs := records(500, 1, false)
	res, err := Run(c, mem(t, recs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range res.Tables["cnt"].Rows {
		total += v
	}
	if total != 500 {
		t.Errorf("counts sum to %v, want 500", total)
	}
	if res.Stats.Records != 500 || res.Stats.Spills != 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.PeakBytes <= 0 {
		t.Error("no memory accounting")
	}
}

// seedPeakBytes replays the scan-phase memory accounting with one boxed
// Aggregator per cell — key bytes + Bytes() + 16 on creation, Bytes()
// growth on update — which is what Stats.PeakBytes has always reported.
func seedPeakBytes(c *core.Compiled, recs []model.Record) int64 {
	m := c.Measures[0]
	cells := map[model.Key]agg.Aggregator{}
	var total int64
	for _, r := range recs {
		k := m.Codec.FromBase(r.Dims)
		a, ok := cells[k]
		if !ok {
			a = m.Agg.New()
			cells[k] = a
			total += int64(len(k)+a.Bytes()) + 16
		}
		before := a.Bytes()
		if m.FactMeasure >= 0 {
			a.Update(r.Ms[m.FactMeasure])
		} else {
			a.Update(0)
		}
		total += int64(a.Bytes() - before)
	}
	return max(total, int64(len(cells))*int64(m.Codec.KeyBytes()+24))
}

// TestSpillEveryAggregatorKind forces the spill/restore/merge path —
// all of it through the measure's aggregate column, with a budget whose
// merge sorts the spill file in several runs — for every aggregation
// function, including the holistic and the arrival-order ones, with
// NULLs in the data: the tables are core.Eval's bit for bit. The
// unbudgeted run also pins the memory accounting: PeakBytes, published
// as the hashtable_bytes_hwm gauge, is what one boxed aggregator per
// cell would have reported.
func TestSpillEveryAggregatorKind(t *testing.T) {
	s := schema2(t)
	kinds := []agg.Kind{
		agg.Count, agg.CountNonNull, agg.Sum, agg.Min, agg.Max,
		agg.Avg, agg.Var, agg.StdDev, agg.CountDistinct, agg.ConstZero,
		agg.First, agg.Last, agg.Median, agg.P95,
	}
	recs := records(4000, 2, true)
	for _, k := range kinds {
		k := k
		fm := 0
		if k == agg.Count || k == agg.ConstZero {
			fm = -1
		}
		c := compile(t, s, func(w *core.Workflow) {
			w.Basic("x", model.Gran{0, 1}, k, fm)
		})
		want, err := Run(c, mem(t, recs), Options{})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if peak := seedPeakBytes(c, recs); want.Stats.PeakBytes != peak {
			t.Errorf("%v: PeakBytes = %d, boxed accounting gives %d", k, want.Stats.PeakBytes, peak)
		}
		got, err := Run(c, mem(t, recs), Options{
			EngineOptions: scan.EngineOptions{TempDir: t.TempDir()}, MemoryBudget: 4096,
		})
		if err != nil {
			t.Fatalf("%v (budgeted): %v", k, err)
		}
		if got.Stats.Spills == 0 {
			t.Fatalf("%v: budget did not trigger spills", k)
		}
		if runs := got.Stats.SortRuns; runs < 2 {
			t.Fatalf("%v: the spill merge sorted %d run(s), want several", k, runs)
		}
		if eval := evalTables(t, c, recs); !eval["x"].Equal(got.Tables["x"], 0) {
			t.Fatalf("%v: spill path differs from core.Eval", k)
		}
	}
}

func TestFilterAndMeasureSelection(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("sumB", model.Gran{model.LevelALL, 2}, agg.Sum, 0,
			core.Where(core.DimWhere(0, core.Lt, 500)))
	})
	recs := []model.Record{
		{Dims: []int64{100, 7}, Ms: []float64{3}},
		{Dims: []int64{600, 7}, Ms: []float64{100}}, // filtered out
		{Dims: []int64{200, 7}, Ms: []float64{4}},
	}
	res, err := Run(c, mem(t, recs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables["sumB"]
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, v := range tbl.Rows {
		if v != 7 {
			t.Errorf("sum = %v, want 7", v)
		}
	}
}

func TestHiddenBasesNotReported(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("cnt", model.Gran{1, model.LevelALL}, agg.Count, -1)
		w.Sliding("sm", "cnt", agg.Avg, []core.Window{{Dim: 0, Lo: -1, Hi: 1}})
	})
	res, err := Run(c, mem(t, records(100, 3, false)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Errorf("tables = %d, want 2 (hidden base excluded)", len(res.Tables))
	}
	for name := range res.Tables {
		if name != "cnt" && name != "sm" {
			t.Errorf("unexpected table %q", name)
		}
	}
}

func TestPhaseTimers(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("cnt", model.Gran{0, 0}, agg.Count, -1)
		w.Rollup("up", model.Gran{2, model.LevelALL}, "cnt", agg.Sum)
	})
	res, err := Run(c, mem(t, records(2000, 4, false)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ScanTime <= 0 {
		t.Error("scan timer not populated")
	}
	if res.Stats.CombineTime < 0 {
		t.Error("combine timer negative")
	}
}

func TestSourceError(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("cnt", model.Gran{1, model.LevelALL}, agg.Count, -1)
	})
	path := writeRecords(t, records(5000, 5, false))
	restore := storage.SwapFS(faultfs.New().FailReadAfter(4096).ShortReads())
	defer restore()
	if _, err := Run(c, scan.FileInput(path), Options{}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("got %v, want the read error", err)
	}
}

// mem is the in-memory input of recs, over schema2's shape.
func mem(t *testing.T, recs []model.Record) scan.Input {
	t.Helper()
	in, err := scan.RecordsInput(recs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// writeRecords writes recs, in schema2's shape, to a new record file.
func writeRecords(t *testing.T, recs []model.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fact.rec")
	if err := storage.WriteAll(path, 2, 1, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// evalTables computes every output of c with the reference evaluator.
func evalTables(t *testing.T, c *core.Compiled, recs []model.Record) map[string]*core.Table {
	t.Helper()
	want := map[string]*core.Table{}
	for _, name := range c.Outputs() {
		e, err := core.Translate(c, name)
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = core.Eval(e, recs); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// edgeRecords draws n records whose shape puts every morsel edge in
// play: the first 512 have A < 500 (a filter on A >= 500 rejects the
// whole first morsel), only the last has a negative measure (a filter
// on m < 0 rejects all but the last row), and the measures are either
// fractions of very different magnitude, so a sum rounds differently in
// any other order, or — whole set — small integers, whose sums are exact
// however a spill regroups them.
func edgeRecords(n int, seed int64, whole bool) []model.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]model.Record, n)
	for i := range recs {
		a := rng.Int63n(1000)
		if i < 512 {
			a = rng.Int63n(500)
		}
		v := float64(rng.Intn(100))
		if !whole {
			v = rng.Float64() * []float64{1e-9, 1, 1e12}[rng.Intn(3)]
		}
		if i == n-1 {
			v = -1
		}
		recs[i] = model.Record{Dims: []int64{a, rng.Int63n(1000)}, Ms: []float64{v}}
	}
	return recs
}

// edgeWorkflow has a measure for every way a table takes a morsel:
// unfiltered, filtered to nothing, filtered to one row, keyed on nothing
// (the all-ALL granularity), and — ten cells under hundreds of rows —
// arrival-order and rounding aggregates that meet the same cell many
// times inside one morsel, with a roll-up read off each kind of source.
func edgeWorkflow(t *testing.T, s *model.Schema) *core.Compiled {
	all := model.LevelALL
	return compile(t, s, func(w *core.Workflow) {
		w.Basic("cnt", model.Gran{1, all}, agg.Count, -1)
		w.Basic("total", model.Gran{all, all}, agg.Sum, 0)
		w.Basic("first", model.Gran{2, all}, agg.First, 0)
		w.Basic("last", model.Gran{2, all}, agg.Last, 0)
		w.Basic("sum", model.Gran{2, 2}, agg.Sum, 0)
		w.Basic("late", model.Gran{1, 0}, agg.Count, -1, core.Where(core.DimWhere(0, core.Ge, 500)))
		w.Basic("tail", model.Gran{0, all}, agg.Sum, 0, core.Where(core.MWhere(0, core.Lt, 0)))
		w.Rollup("cells", model.Gran{2, all}, "cnt", agg.Count)
		w.Rollup("lateCells", model.Gran{2, all}, "late", agg.CountDistinct)
		w.Rollup("sumUp", model.Gran{all, all}, "sum", agg.Sum)
	})
}

// TestMorselEdges: row counts one short of, equal to, one over and twice
// over the morsel, from in-memory records (512-row batches) and from a
// file (one batch, cut into morsels), all bit-identical to core.Eval.
func TestMorselEdges(t *testing.T) {
	s := schema2(t)
	c := edgeWorkflow(t, s)
	for _, n := range []int{1, morselRows - 1, morselRows, morselRows + 1, 2*morselRows + 1} {
		recs := edgeRecords(n, int64(n), false)
		want := evalTables(t, c, recs)
		fromRows, err := Run(c, mem(t, recs), Options{})
		if err != nil {
			t.Fatal(err)
		}
		fromFile, err := Run(c, scan.FileInput(writeRecords(t, recs)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, tbl := range want {
			if !tbl.Equal(fromRows.Tables[name], 0) {
				t.Errorf("%d rows: %s from a row source differs from core.Eval", n, name)
			}
			if !tbl.Equal(fromFile.Tables[name], 0) {
				t.Errorf("%d rows: %s from a file differs from core.Eval", n, name)
			}
		}
		if n > 1 && len(want["tail"].Rows) != 1 {
			t.Fatalf("%d rows: the tail filter kept %d cells, want the last row's", n, len(want["tail"].Rows))
		}
		if n <= morselRows && len(want["late"].Rows) != 0 {
			t.Fatalf("%d rows: the late filter kept rows of the first morsel", n)
		}
	}
}

// TestSpillInsideABatch: a budget the tables cross in the middle of the
// file's one batch, so spills land between two tables' passes over a
// morsel; the merged result is still core.Eval's, bit for bit.
func TestSpillInsideABatch(t *testing.T) {
	s := schema2(t)
	c := edgeWorkflow(t, s)
	recs := edgeRecords(5*morselRows+7, 9, true)
	want := evalTables(t, c, recs)
	got, err := Run(c, mem(t, recs), Options{EngineOptions: scan.EngineOptions{TempDir: t.TempDir()}, MemoryBudget: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Spills < 3 {
		t.Fatalf("%d spills; the budget was meant to force several", got.Stats.Spills)
	}
	for name, tbl := range want {
		if !tbl.Equal(got.Tables[name], 0) {
			t.Errorf("%s differs from core.Eval after %d spills", name, got.Stats.Spills)
		}
	}
}

// TestPeakBytesAtMorselEdges: the byte accounting, now added up a morsel
// and a table at a time, is still the boxed per-row replay's — for a
// holistic kind, whose cells grow on update, at every edge row count.
func TestPeakBytesAtMorselEdges(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("x", model.Gran{1, 2}, agg.CountDistinct, 0)
	})
	for _, n := range []int{morselRows - 1, morselRows, morselRows + 1, 2*morselRows + 1} {
		recs := records(n, int64(n), true)
		res, err := Run(c, mem(t, recs), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if peak := seedPeakBytes(c, recs); res.Stats.PeakBytes != peak {
			t.Errorf("%d rows: PeakBytes = %d, boxed accounting gives %d", n, res.Stats.PeakBytes, peak)
		}
	}
}

// cancelFS cancels a context on its files' third read: a fact file read
// in MinBatchBytes chunks has spilled by then and is still scanning.
type cancelFS struct {
	storage.OSFS
	reads  atomic.Int64
	cancel func()
}

func (fs *cancelFS) Open(name string) (storage.File, error) {
	f, err := fs.OSFS.Open(name)
	if err != nil {
		return nil, err
	}
	return cancelFile{f, fs}, nil
}

type cancelFile struct {
	storage.File
	fs *cancelFS
}

func (f cancelFile) Read(p []byte) (int, error) {
	if f.fs.reads.Add(1) == 3 {
		f.fs.cancel()
	}
	return f.File.Read(p)
}

// TestSpillFiles: a forced spill creates its spill file and nothing
// else — the merge sorts it in memory, with no sorted copy — and a
// spilling run leaves no file behind whether it succeeds, is canceled
// mid-scan, or fails to create the merge's run file.
func TestSpillFiles(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("x", model.Gran{0, 1}, agg.Sum, 0)
	})
	run := func(fs storage.FileSystem, in scan.Input, g *qguard.Guard) (*scan.Result, error) {
		t.Helper()
		dir := t.TempDir()
		restore := storage.SwapFS(fs)
		res, err := Run(c, in, Options{
			EngineOptions: scan.EngineOptions{TempDir: dir, ReadBatchBytes: scan.MinBatchBytes, Guard: g},
			MemoryBudget:  4096,
		})
		restore()
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%d files left behind (err %v)", len(entries), err)
		}
		return res, err
	}

	recs := records(300, 7, false)
	fs := faultfs.New()
	res, err := run(fs, mem(t, recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Spills < 2 {
		t.Fatalf("%d spills, want the budget to force several", res.Stats.Spills)
	}
	if fs.Creates() != 1 {
		t.Errorf("a spilling run created %d files, want its one spill file", fs.Creates())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fact := scan.FileInput(writeRecords(t, records(8000, 8, false)))
	if _, err := run(&cancelFS{cancel: cancel}, fact, qguard.New(ctx, qguard.Limits{})); !errors.Is(err, qguard.ErrCanceled) {
		t.Errorf("canceled mid-scan: got %v, want ErrCanceled", err)
	}

	// 4000 rows overflow one merge chunk: the second create is a run file.
	if _, err := run(faultfs.New().FailCreate(2), mem(t, records(4000, 9, false)), nil); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("failing run-file create: got %v, want ErrInjected", err)
	}
}

// runningSpans names every span of the snapshot still running.
func runningSpans(spans []*obs.SpanSnapshot) []string {
	var out []string
	for _, s := range spans {
		if s.Running {
			out = append(out, s.Name)
		}
		out = append(out, runningSpans(s.Children)...)
	}
	return out
}

// TestSpansEndOnError: a run that stops early — here a live-cell budget
// trip mid-scan — leaves no phase span running in the recorder.
func TestSpansEndOnError(t *testing.T) {
	s := schema2(t)
	c := compile(t, s, func(w *core.Workflow) {
		w.Basic("x", model.Gran{0, 0}, agg.Count, -1)
	})
	rec := obs.New()
	g := qguard.New(context.Background(), qguard.Limits{MaxLiveCells: 10})
	_, err := Run(c, mem(t, records(2000, 10, false)), Options{EngineOptions: scan.EngineOptions{Recorder: rec, Guard: g}})
	if !errors.Is(err, qguard.ErrBudgetExceeded) {
		t.Fatalf("got %v, want a budget trip", err)
	}
	if running := runningSpans(rec.Snapshot().Spans); len(running) != 0 {
		t.Errorf("spans still running after the run returned: %v", running)
	}
}
