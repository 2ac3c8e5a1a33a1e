package aw_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"awra/aw"
	"awra/internal/storage"
)

// attackSchema builds the running-example schema of the paper.
func attackSchema(t *testing.T) *aw.Schema {
	t.Helper()
	s, err := aw.NewSchema([]*aw.Dimension{
		aw.TimeDimension("t"),
		aw.IPv4Dimension("U"),
		aw.IPv4Dimension("T"),
		aw.PortDimension("P"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func attackRecords(n int, seed int64) []aw.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]aw.Record, n)
	for i := range recs {
		sec := aw.SecondCode(2004, 3, 1+rng.Intn(3), rng.Intn(24), rng.Intn(60), rng.Intn(60))
		recs[i] = aw.Record{Dims: []int64{
			sec,
			aw.IPCode(1, rng.Intn(4), rng.Intn(4), rng.Intn(50)),
			aw.IPCode(10, 0, rng.Intn(8), rng.Intn(256)),
			int64(rng.Intn(1024)),
		}, Ms: []float64{}}
	}
	return recs
}

// busyWorkflow is Examples 1-3 of the paper: hourly per-source counts,
// then the number of busy sources per hour.
func busyWorkflow(t *testing.T, s *aw.Schema, threshold float64) *aw.Workflow {
	t.Helper()
	gHourIP, err := s.MakeGran(map[string]string{"t": "Hour", "U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	gHour, err := s.MakeGran(map[string]string{"t": "Hour"})
	if err != nil {
		t.Fatal(err)
	}
	return aw.NewWorkflow(s).
		Basic("Count", gHourIP, aw.Count, -1).
		Rollup("sCount", gHour, "Count", aw.Count, aw.Where(aw.MWhere(0, aw.Gt, threshold))).
		Rollup("sTraffic", gHour, "Count", aw.Sum, aw.Where(aw.MWhere(0, aw.Gt, threshold)))
}

func TestQueryInMemoryDefaultEngine(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(2000, 1)
	res, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"Count", "sCount", "sTraffic"} {
		if res[m] == nil || len(res[m].Rows) == 0 {
			t.Fatalf("measure %s empty", m)
		}
	}
	// sTraffic >= 2*sCount per cell (each busy source has count > 1).
	sc, st := res["sCount"], res["sTraffic"]
	for k, v := range sc.Rows {
		if tv, ok := st.Rows[k]; !ok || tv < 2*v {
			t.Fatalf("cell %s: sCount %v, sTraffic %v", sc.Codec.Format(k), v, tv)
		}
	}
}

func TestAllEnginesAgreeOnFile(t *testing.T) {
	s := attackSchema(t)
	recs := attackRecords(3000, 2)
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	w := busyWorkflow(t, s, 1)
	want, err := aw.Run(context.Background(), w, aw.FromRecords(recs), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []aw.Engine{aw.EngineSortScan, aw.EngineSingleScan, aw.EngineMultiPass, aw.EngineRelational} {
		got, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
			ExecOptions: aw.ExecOptions{Engine: eng},
			TempDir:     dir,
		})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		for name, tbl := range want {
			if !tbl.Equal(got[name], 1e-9) {
				t.Fatalf("%v: measure %s differs", eng, name)
			}
		}
	}
}

func TestQueryCompileError(t *testing.T) {
	s := attackSchema(t)
	w := aw.NewWorkflow(s).Rollup("r", s.AllGran(), "ghost", aw.Sum)
	if _, err := aw.Run(context.Background(), w, aw.FromRecords(nil)); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestBestSortKeyAndExplain(t *testing.T) {
	s := attackSchema(t)
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	key, bytes, err := aw.BestSortKey(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) == 0 || bytes <= 0 {
		t.Fatalf("key %v bytes %v", key, bytes)
	}
	if dot := aw.DOT(c); !strings.Contains(dot, "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestParseEngine(t *testing.T) {
	cases := map[string]aw.Engine{
		"":           aw.EngineSortScan,
		"sortscan":   aw.EngineSortScan,
		"shardscan":  aw.EngineShardScan,
		"singlescan": aw.EngineSingleScan,
		"multipass":  aw.EngineMultiPass,
		"relational": aw.EngineRelational,
	}
	for name, want := range cases {
		got, err := aw.ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"spark", "scan", "db", "partscan"} {
		var ue *aw.UnknownEngineError
		if _, err := aw.ParseEngine(name); !errors.As(err, &ue) {
			t.Errorf("ParseEngine(%q) error = %v, want *UnknownEngineError", name, err)
		}
	}
	for _, e := range []aw.Engine{aw.EngineSortScan, aw.EngineShardScan, aw.EngineSingleScan, aw.EngineMultiPass, aw.EngineRelational} {
		if e.String() == "" || strings.HasPrefix(e.String(), "Engine(") {
			t.Errorf("engine %d has no name", e)
		}
	}
}

func TestSiblingAndCombineThroughFacade(t *testing.T) {
	// Example 4/5: moving average of busy-source counts and a ratio.
	s := attackSchema(t)
	gHourIP, _ := s.MakeGran(map[string]string{"t": "Hour", "U": "IP"})
	gHour, _ := s.MakeGran(map[string]string{"t": "Hour"})
	w := aw.NewWorkflow(s).
		Basic("Count", gHourIP, aw.Count, -1).
		Rollup("sCount", gHour, "Count", aw.Count, aw.Where(aw.MWhere(0, aw.Gt, 1))).
		Sliding("avgCount", "sCount", aw.Avg, []aw.Window{{Dim: 0, Lo: 0, Hi: 5}}).
		Combine("ratio", []string{"avgCount", "sCount"}, aw.Ratio(0, 1))
	res, err := aw.Run(context.Background(), w, aw.FromRecords(attackRecords(4000, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res["avgCount"].Rows) == 0 || len(res["ratio"].Rows) == 0 {
		t.Fatal("empty composite results")
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "a.rec")
	csvPath := filepath.Join(dir, "a.csv")
	recs := attackRecords(50, 4)
	if err := storage.WriteAll(recPath, 4, 0, recs); err != nil {
		t.Fatal(err)
	}
	if err := aw.ExportCSV(recPath, csvPath, []string{"t", "U", "T", "P"}); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "b.rec")
	n, err := aw.ImportCSV(csvPath, back, 4)
	if err != nil || n != 50 {
		t.Fatalf("import: %v n=%d", err, n)
	}
}
