package sortscan

import (
	"math/rand"
	"path/filepath"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/plan"
	"awra/internal/storage"
)

// netSchema is the Table 1 schema.
func netSchema(t *testing.T) *model.Schema {
	t.Helper()
	s, err := model.NewSchema([]*model.Dimension{
		model.TimeDimension("t"),
		model.IPv4Dimension("U"),
		model.IPv4Dimension("T"),
		model.PortDimension("P"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// netRecords generates a few days of traffic.
func netRecords(n int, seed int64) []model.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{Dims: []int64{
			model.SecondCode(2004, 3, 1+rng.Intn(4), rng.Intn(24), rng.Intn(60), rng.Intn(60)),
			model.IPCode(1, 0, 0, rng.Intn(30)),
			model.IPCode(10, 0, rng.Intn(5), rng.Intn(40)),
			int64(rng.Intn(100)),
		}, Ms: []float64{}}
	}
	return recs
}

// smaxWorkflow is the S_max example of Section 5.3.3: two per-day
// rollup chains combined at the top.
func smaxWorkflow(t *testing.T, s *model.Schema) *core.Compiled {
	t.Helper()
	day, _ := s.Dim(0).LevelByName("Day")
	all := model.LevelALL
	g1, _ := s.Normalize(model.Gran{day, 0, all, all}) // (t:Day, U:IP)
	g2, _ := s.Normalize(model.Gran{day, all, 0, all}) // (t:Day, T:IP)
	gDay, _ := s.Normalize(model.Gran{day, all, all, all})
	c, err := core.NewWorkflow(s).
		Basic("s1", g1, agg.Count, -1).
		Basic("s2", g2, agg.Count, -1).
		Rollup("smax1", gDay, "s1", agg.Max).
		Rollup("smax2", gDay, "s2", agg.Max).
		Combine("smax", []string{"smax1", "smax2"}, core.MaxOf()).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mem is the in-memory input of recs, in s's shape.
func mem(t testing.TB, s *model.Schema, recs []model.Record) scan.Input {
	t.Helper()
	in, err := scan.RecordsInput(recs, s.NumDims(), s.NumMeasures())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// run evaluates c over in-memory records sorted by key.
func run(t *testing.T, c *core.Compiled, recs []model.Record, key model.SortKey) *scan.Result {
	t.Helper()
	res, err := Run(c, mem(t, c.Schema, recs), Options{SortKey: key})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmaxExample executes the paper's Section 5.3.3 walk-through:
// sorted by <t:Day, T:IP>, smax2 entries finalize as the target IP
// changes, smax1 and smax only when the day switches — and the final
// values must equal a direct computation.
func TestSmaxExample(t *testing.T) {
	s := netSchema(t)
	c := smaxWorkflow(t, s)
	recs := netRecords(2000, 5)
	day, _ := s.Dim(0).LevelByName("Day")
	res := run(t, c, recs, model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}})

	// Direct computation of smax per day.
	want := map[int64]float64{}
	perDayU := map[[2]int64]float64{}
	perDayT := map[[2]int64]float64{}
	for _, r := range recs {
		d := s.Dim(0).Up(0, day, r.Dims[0])
		perDayU[[2]int64{d, r.Dims[1]}]++
		perDayT[[2]int64{d, r.Dims[2]}]++
	}
	for k, v := range perDayU {
		if v > want[k[0]] {
			want[k[0]] = v
		}
	}
	for k, v := range perDayT {
		if v > want[k[0]] {
			want[k[0]] = v
		}
	}
	got := res.Tables["smax"]
	if len(got.Rows) != len(want) {
		t.Fatalf("smax has %d days, want %d", len(got.Rows), len(want))
	}
	for k, v := range got.Rows {
		d := got.Codec.Decode(k)[0]
		if want[d] != v {
			t.Errorf("day %d: smax = %v, want %v", d, v, want[d])
		}
	}
	// The engine must have flushed incrementally, not only at the end.
	if res.Stats.FlushBatches < 4 {
		t.Errorf("only %d flush batches; streaming finalization seems inert", res.Stats.FlushBatches)
	}
	// Live cells must stay well below the total number of regions.
	total := 0
	for _, tbl := range res.Tables {
		total += len(tbl.Rows)
	}
	if res.Stats.PeakCells >= int64(total) {
		t.Errorf("peak cells %d >= total regions %d: no early flushing", res.Stats.PeakCells, total)
	}
}

// TestHelpfulVsHostileSortKey: a sort key aligned with the measure
// granularity must yield a much smaller peak footprint than a key on
// an unrelated dimension.
func TestHelpfulVsHostileSortKey(t *testing.T) {
	s := netSchema(t)
	hour, _ := s.Dim(0).LevelByName("Hour")
	all := model.LevelALL
	g, _ := s.Normalize(model.Gran{hour, 0, all, all})
	c, err := core.NewWorkflow(s).Basic("cnt", g, agg.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := netRecords(4000, 6)
	helpful := run(t, c, recs, model.SortKey{{Dim: 0, Lvl: hour}, {Dim: 1, Lvl: 0}})
	hostile := run(t, c, recs, model.SortKey{{Dim: 3, Lvl: 0}})
	if !helpful.Tables["cnt"].Equal(hostile.Tables["cnt"], 0) {
		t.Fatal("results differ across sort keys")
	}
	if helpful.Stats.PeakCells*4 > hostile.Stats.PeakCells {
		t.Errorf("helpful key peak %d, hostile peak %d: expected a big gap",
			helpful.Stats.PeakCells, hostile.Stats.PeakCells)
	}
}

// TestRunFullPath exercises Run (external sort included) and the
// phase timers behind Figure 6(e).
func TestRunFullPath(t *testing.T) {
	s := netSchema(t)
	c := smaxWorkflow(t, s)
	recs := netRecords(1500, 7)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	day, _ := s.Dim(0).LevelByName("Day")
	res, err := Run(c, scan.FileInput(fact), Options{
		EngineOptions: scan.EngineOptions{TempDir: dir, ChunkRecords: 200},
		SortKey:       model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Records != 1500 {
		t.Errorf("records = %d", res.Stats.Records)
	}
	if res.Stats.SortTime <= 0 || res.Stats.ScanTime <= 0 {
		t.Errorf("phase timers not populated: %+v", res.Stats)
	}
	if res.Stats.SortRuns < 2 {
		t.Errorf("expected multiple external-sort runs with chunk 200, got %d", res.Stats.SortRuns)
	}
	inMem := run(t, c, recs, model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}})
	for name, tbl := range res.Tables {
		if !tbl.Equal(inMem.Tables[name], 0) {
			t.Errorf("measure %s differs between file and in-memory paths", name)
		}
	}
}

// TestBadSortKeyRejected propagates plan validation.
func TestBadSortKeyRejected(t *testing.T) {
	s := netSchema(t)
	c := smaxWorkflow(t, s)
	_, err := Run(c, scan.FileInput("/nonexistent"), Options{SortKey: model.SortKey{{Dim: 99, Lvl: 0}}})
	if err == nil {
		t.Fatal("bad sort key accepted")
	}
	_, err = Run(c, scan.FileInput("/nonexistent/path.rec"), Options{SortKey: model.SortKey{{Dim: 0, Lvl: 0}}})
	if err == nil {
		t.Fatal("missing fact file accepted")
	}
}

// TestCodeChangesCarryAcrossBatches: the scan takes each record's codes
// from the shared code columns, loaded a batch at a time, and flags a
// code as changed exactly on the records where it differs from the
// record before — the first record of a batch against the last of the
// one before, and the very first record on every code.
func TestCodeChangesCarryAcrossBatches(t *testing.T) {
	s := netSchema(t)
	c := smaxWorkflow(t, s)
	day, _ := s.Dim(0).LevelByName("Day")
	key := model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}}
	pl, err := plan.Build(c, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := netRecords(2*scanStride, 9)
	storage.SortRecords(recs, func(a, b *model.Record) bool { return key.RecordLess(s, a, b) })
	// The second batch opens on the first one's last record with only
	// its source IP changed: some codes carry over unchanged, one does not.
	recs[scanStride].Dims = append([]int64{}, recs[scanStride-1].Dims...)
	recs[scanStride].Dims[1]++
	rows := make([]scan.Record, len(recs))
	for i := range recs {
		rows[i] = scan.EncodeRow(make([]byte, 8*s.NumDims()), &recs[i])
	}

	e := newEngine(c, pl, false)
	// Which (dimension, level) each code column holds, from the nodes
	// that read it.
	parts := make([]model.SortPart, e.codes.Len())
	for _, n := range e.nodes {
		if n.m.Kind != core.KindBasic {
			continue
		}
		for j, ci := range n.wmIdx {
			parts[ci] = n.arcs[0].pl.CmpKey[j]
		}
		k := 0
		for d, lvl := range n.m.Gran {
			if lvl != s.Dim(d).ALL() {
				parts[n.cellIdx[k]] = model.SortPart{Dim: d, Lvl: lvl}
				k++
			}
		}
	}
	code := func(i, j int) int64 { return s.Dim(parts[j].Dim).Up(0, parts[j].Lvl, recs[i].Dims[parts[j].Dim]) }
	boundary := map[bool]int{}
	for at := 0; at < len(rows); at += scanStride {
		batch := rows[at:min(at+scanStride, len(rows))]
		e.codes.Load(batch)
		for r := range batch {
			e.rowCodes(r)
			i := at + r
			for j := range parts {
				want := i == 0 || code(i, j) != code(i-1, j)
				if e.cpChanged[j] != want || e.cpVals[j] != code(i, j) {
					t.Fatalf("record %d, code %v: %d, changed %v; want %d, changed %v",
						i, parts[j], e.cpVals[j], e.cpChanged[j], code(i, j), want)
				}
				if i == scanStride {
					boundary[want]++
				}
			}
		}
	}
	if boundary[true] == 0 || boundary[false] == 0 {
		t.Fatalf("the second batch's first record changed %d codes and kept %d; want some of each",
			boundary[true], boundary[false])
	}

	// The scan loop itself: a basic node's fact watermark advances on
	// exactly the records where one of its watermark codes changed.
	e = newEngine(c, pl, true)
	var basics []*node
	for _, n := range e.nodes {
		if n.m.Kind == core.KindBasic {
			basics = append(basics, n)
		}
	}
	for at := 0; at < len(rows); at += scanStride {
		if err := e.scanRows(basics, nil, rows[at:min(at+scanStride, len(rows))]); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range basics {
		want := int64(0)
		for i := range recs {
			for _, ci := range n.wmIdx {
				if i == 0 || code(i, ci) != code(i-1, ci) {
					want++
					break
				}
			}
		}
		if got := n.arcs[0].advances; got != want {
			t.Errorf("%s: %d watermark advances over %d records, want %d", n.m.Name, got, len(recs), want)
		}
	}
}
