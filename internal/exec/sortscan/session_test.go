package sortscan

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/plan"
	"awra/internal/storage"
)

// TestSessionMatchesBatch: pushing records one at a time must produce
// the same tables as the batch run over the same sorted input.
func TestSessionMatchesBatch(t *testing.T) {
	s := netSchema(t)
	c := smaxWorkflow(t, s)
	recs := netRecords(1200, 21)
	day, _ := s.Dim(0).LevelByName("Day")
	key := model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}}
	nk, _ := key.Normalize(s)
	storage.SortRecords(recs, func(a, b *model.Record) bool { return nk.RecordLess(s, a, b) })
	pl, err := plan.Build(c, nk, nil)
	if err != nil {
		t.Fatal(err)
	}

	batch, err := Run(c, mem(t, s, recs), Options{SortKey: nk})
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(c, pl, SessionOptions{})
	for i := range recs {
		if err := sess.Push(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Records() != 1200 {
		t.Errorf("session records = %d", sess.Records())
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range batch.Tables {
		if !tbl.Equal(res.Tables[name], 0) {
			t.Errorf("measure %s differs between session and batch", name)
		}
	}
}

// TestSessionEmitIsEarlyAndComplete: the emit callback must deliver
// every finalized region exactly once, and most of them before Close.
func TestSessionEmitIsEarlyAndComplete(t *testing.T) {
	s := netSchema(t)
	hour, _ := s.Dim(0).LevelByName("Hour")
	g, _ := s.Normalize(model.Gran{hour, model.LevelALL, model.LevelALL, model.LevelALL})
	c, err := core.NewWorkflow(s).
		Basic("cnt", g, agg.Count, -1).
		Sliding("trend", "cnt", agg.Avg, []core.Window{{Dim: 0, Lo: -2, Hi: 0}}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := netRecords(2000, 23)
	key := model.SortKey{{Dim: 0, Lvl: 0}}
	nk, _ := key.Normalize(s)
	storage.SortRecords(recs, func(a, b *model.Record) bool { return nk.RecordLess(s, a, b) })
	pl, err := plan.Build(c, nk, nil)
	if err != nil {
		t.Fatal(err)
	}

	type emission struct {
		measure string
		key     model.Key
	}
	var emissions []emission
	var beforeClose int
	closed := false
	sess := NewSession(c, pl, SessionOptions{Emit: func(m string, k model.Key, v float64) {
		emissions = append(emissions, emission{m, k})
		if !closed {
			beforeClose++
		}
	}})
	for i := range recs {
		if err := sess.Push(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	closed = true
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Exactly one emission per output region, no duplicates.
	seen := map[emission]bool{}
	for _, e := range emissions {
		if seen[e] {
			t.Fatalf("duplicate emission %v", e)
		}
		seen[e] = true
	}
	total := 0
	for name, tbl := range res.Tables {
		total += len(tbl.Rows)
		for k := range tbl.Rows {
			if !seen[emission{name, k}] {
				t.Fatalf("region %s of %s never emitted", tbl.Codec.Format(k), name)
			}
		}
	}
	if len(emissions) != total {
		t.Errorf("%d emissions for %d regions", len(emissions), total)
	}
	// Streaming means most regions finalize before the end.
	if beforeClose < total/2 {
		t.Errorf("only %d of %d regions emitted before Close; streaming inert", beforeClose, total)
	}
	// The live frontier stayed far below the total region count.
	if sess.LiveCells() != 0 {
		t.Errorf("live cells after close = %d", sess.LiveCells())
	}
}

// TestSessionOrderValidation: every session checks sort-key order. A
// record on an earlier day is rejected under <t:Day>, and one on the
// same day but an earlier second ties on the key and is accepted.
func TestSessionOrderValidation(t *testing.T) {
	s := netSchema(t)
	c := smaxWorkflow(t, s)
	day, _ := s.Dim(0).LevelByName("Day")
	key := model.SortKey{{Dim: 0, Lvl: day}}
	nk, _ := key.Normalize(s)
	pl, err := plan.Build(c, nk, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c, pl, SessionOptions{})
	r1 := model.Record{Dims: []int64{model.SecondCode(2004, 3, 5, 12, 0, 0), 1, 1, 1}, Ms: []float64{}}
	r2 := model.Record{Dims: []int64{model.SecondCode(2004, 3, 4, 0, 0, 0), 1, 1, 1}, Ms: []float64{}}
	tie := model.Record{Dims: []int64{model.SecondCode(2004, 3, 5, 3, 0, 0), 1, 1, 1}, Ms: []float64{}}
	if err := sess.Push(&r1); err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(&r2); err == nil {
		t.Fatal("out-of-order push accepted")
	}
	if err := sess.Push(&tie); err != nil {
		t.Fatalf("key tie with smaller base coordinates rejected: %v", err)
	}
	short := model.Record{Dims: r1.Dims[:2], Ms: []float64{}}
	var se *scan.ShapeError
	if err := sess.Push(&short); !errors.As(err, &se) || se.Index != 2 || se.Dims != 2 {
		t.Fatalf("short record: got %v, want a ShapeError naming push 2", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	if err := sess.Push(&r1); err == nil {
		t.Fatal("push after close accepted")
	}
}

// mixedWorkflow exercises every measure kind and every delivery path of
// the flush machinery over the network schema: cnt's flush batches span
// many output-order projection classes under <t:Day, U:IP> (a day's
// batch holds every /24), busy is a filtered roll-up, trend a sliding
// window, ofHour a parent/child join back down to cnt's cells, share a
// combine.
func mixedWorkflow(t testing.TB, s *model.Schema) (*core.Compiled, *plan.Plan) {
	t.Helper()
	hour, _ := s.Dim(0).LevelByName("Hour")
	day, _ := s.Dim(0).LevelByName("Day")
	sub24, _ := s.Dim(1).LevelByName("/24")
	all := model.LevelALL
	gCnt := model.Gran{hour, sub24, all, all}
	gHour := model.Gran{hour, all, all, all}
	c, err := core.NewWorkflow(s).
		Basic("cnt", gCnt, agg.Count, -1).
		Rollup("busy", gHour, "cnt", agg.Count, core.Where(core.MWhere(0, core.Gt, 1))).
		Sliding("trend", "busy", agg.Avg, []core.Window{{Dim: 0, Lo: -2, Hi: 0}}).
		FromParent("ofHour", gCnt, "busy", agg.Sum).
		Combine("share", []string{"trend", "busy"}, core.Ratio(0, 1)).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := model.SortKey{{Dim: 0, Lvl: day}, {Dim: 1, Lvl: 0}}.Normalize(s)
	pl, err := plan.Build(c, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ci, _ := c.Index("cnt"); len(pl.Nodes[ci].OutOrder) < 2 {
		t.Fatalf("cnt's output order %s cannot split a flush batch into projection classes",
			pl.Nodes[ci].OutOrder.String(s))
	}
	return c, pl
}

// mixedRecords draws n records over five days and 12·nets source /24s
// of thirty addresses each, sorted for mixedWorkflow's plan.
func mixedRecords(s *model.Schema, pl *plan.Plan, n, nets int, seed int64) []model.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{Dims: []int64{
			model.SecondCode(2004, 3, 1+rng.Intn(5), rng.Intn(24), rng.Intn(60), rng.Intn(60)),
			model.IPCode(1, rng.Intn(nets), rng.Intn(12), rng.Intn(30)),
			model.IPCode(10, 0, 0, rng.Intn(40)),
			int64(rng.Intn(100)),
		}, Ms: []float64{}}
	}
	storage.SortRecords(recs, func(a, b *model.Record) bool { return pl.SortKey.RecordLess(s, a, b) })
	return recs
}

// TestSessionEmitOrderGolden pins the Emit sequence itself — measure,
// key and value of every emission, in order — not just the emitted set:
// flush timing and the (output-order projection, key) order inside a
// flush batch are the engine's contract with streaming consumers, and
// mixedWorkflow makes every part of that order matter. The digest was
// recorded from the sort.Slice implementation the flush path started
// with.
func TestSessionEmitOrderGolden(t *testing.T) {
	s := netSchema(t)
	c, pl := mixedWorkflow(t, s)
	recs := mixedRecords(s, pl, 6000, 1, 31)

	h := fnv.New64a()
	var n int
	perMeasure := map[string]int{}
	sess := NewSession(c, pl, SessionOptions{Emit: func(m string, k model.Key, v float64) {
		var vb [8]byte
		binary.LittleEndian.PutUint64(vb[:], math.Float64bits(v))
		h.Write([]byte(m))
		h.Write([]byte{0})
		h.Write([]byte(k))
		h.Write(vb[:])
		n++
		perMeasure[m]++
	}})
	for i := range recs {
		if err := sess.Push(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	const wantN, wantDigest = 3192, uint64(0xc91794dd089cb3a3)
	if got := h.Sum64(); n != wantN || got != wantDigest {
		t.Errorf("emit sequence: %d emissions %v, digest %#x; golden is %d emissions, digest %#x",
			n, perMeasure, got, wantN, uint64(wantDigest))
	}
}
