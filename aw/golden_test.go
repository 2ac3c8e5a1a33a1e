package aw_test

import (
	"context"
	"path/filepath"
	"testing"

	"awra/aw"
	"awra/internal/storage"
)

// TestGoldenPipeline pins the exact results of a fixed workload through
// the full file-based pipeline: deterministic dataset -> sort/scan
// query -> save -> reload -> compare against hand-computed values. It
// is a regression tripwire for the storage format, the engines, and
// the result store together.
func TestGoldenPipeline(t *testing.T) {
	schema := aw.MustSchema([]*aw.Dimension{
		aw.TimeDimension("t"),
		aw.IPv4Dimension("U"),
	})

	// Fixed, hand-checkable dataset: hour h gets h+1 packets from
	// source 1.2.3.(h%3), for h in 0..5 on 2004-03-01.
	var recs []aw.Record
	for h := 0; h < 6; h++ {
		for p := 0; p <= h; p++ {
			recs = append(recs, aw.Record{
				Dims: []int64{
					aw.SecondCode(2004, 3, 1, h, p, 0),
					aw.IPCode(1, 2, 3, h%3),
				},
				Ms: []float64{},
			})
		}
	}
	dir := t.TempDir()
	fact := filepath.Join(dir, "golden.rec")
	if err := storage.WriteAll(fact, 2, 0, recs); err != nil {
		t.Fatal(err)
	}

	gHour, err := schema.MakeGran(map[string]string{"t": "Hour"})
	if err != nil {
		t.Fatal(err)
	}
	gSrc, err := schema.MakeGran(map[string]string{"U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	wf := aw.NewWorkflow(schema).
		Basic("hourly", gHour, aw.Count, -1).
		Basic("bySource", gSrc, aw.Count, -1).
		Sliding("trail2", "hourly", aw.Sum, []aw.Window{{Dim: 0, Lo: -1, Hi: 0}}).
		Rollup("peak", schema.AllGran(), "trail2", aw.Max)

	res, err := aw.Run(context.Background(), wf, aw.FromFile(fact), aw.QueryOptions{TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	check := func(tbl *aw.Table, wantByLabel map[string]float64) {
		t.Helper()
		if len(tbl.Rows) != len(wantByLabel) {
			t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(wantByLabel))
		}
		for k, v := range tbl.Rows {
			label := tbl.Codec.Format(k)
			want, ok := wantByLabel[label]
			if !ok {
				t.Fatalf("unexpected region %q", label)
			}
			if v != want {
				t.Fatalf("%q = %v, want %v", label, v, want)
			}
		}
	}

	check(res["hourly"], map[string]float64{
		"t:2004-03-01 00h": 1, "t:2004-03-01 01h": 2, "t:2004-03-01 02h": 3,
		"t:2004-03-01 03h": 4, "t:2004-03-01 04h": 5, "t:2004-03-01 05h": 6,
	})
	// Sources: h%3 cycles, so .0 gets hours 0,3 -> 1+4=5 packets;
	// .1 gets hours 1,4 -> 2+5=7; .2 gets hours 2,5 -> 3+6=9.
	check(res["bySource"], map[string]float64{
		"U:1.2.3.0": 5, "U:1.2.3.1": 7, "U:1.2.3.2": 9,
	})
	// Two-hour trailing sums: 1, 3, 5, 7, 9, 11.
	check(res["trail2"], map[string]float64{
		"t:2004-03-01 00h": 1, "t:2004-03-01 01h": 3, "t:2004-03-01 02h": 5,
		"t:2004-03-01 03h": 7, "t:2004-03-01 04h": 9, "t:2004-03-01 05h": 11,
	})
	check(res["peak"], map[string]float64{"ALL": 11})

	// Round trip through the result store.
	store := filepath.Join(dir, "store")
	if err := aw.SaveResults(store, schema, res); err != nil {
		t.Fatal(err)
	}
	back, err := aw.LoadResults(store, schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range res {
		if !tbl.Equal(back[name], 0) {
			t.Fatalf("measure %s changed across save/load", name)
		}
	}

	// And the relational baseline agrees on the golden values.
	rel, err := aw.Run(context.Background(), wf, aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineRelational},
		TempDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range res {
		if !tbl.Equal(rel[name], 0) {
			t.Fatalf("relational baseline disagrees on %s", name)
		}
	}
}
