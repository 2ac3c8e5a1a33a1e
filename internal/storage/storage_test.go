package storage

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"awra/internal/model"
)

func randRecords(rng *rand.Rand, n, nd, nm int) []model.Record {
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{Dims: make([]int64, nd), Ms: make([]float64, nm)}
		for j := range recs[i].Dims {
			recs[i].Dims[j] = rng.Int63n(1000) - 500
		}
		for j := range recs[i].Ms {
			recs[i].Ms[j] = rng.NormFloat64() * 100
		}
	}
	return recs
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.rec")
	rng := rand.New(rand.NewSource(1))
	recs := randRecords(rng, 500, 3, 2)
	if err := WriteAll(path, 3, 2, recs); err != nil {
		t.Fatal(err)
	}
	got, hdr, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.NumDims != 3 || hdr.NumMeasures != 2 || hdr.Count != 500 {
		t.Fatalf("header = %+v", hdr)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		for j := range recs[i].Dims {
			if got[i].Dims[j] != recs[i].Dims[j] {
				t.Fatalf("record %d dim %d mismatch", i, j)
			}
		}
		for j := range recs[i].Ms {
			if got[i].Ms[j] != recs[i].Ms[j] {
				t.Fatalf("record %d measure %d mismatch", i, j)
			}
		}
	}
}

func TestSpecialFloatValues(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.rec")
	recs := []model.Record{
		{Dims: []int64{1}, Ms: []float64{math.NaN()}},
		{Dims: []int64{2}, Ms: []float64{math.Inf(1)}},
		{Dims: []int64{3}, Ms: []float64{math.Inf(-1)}},
	}
	if err := WriteAll(path, 1, 1, recs); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0].Ms[0]) || !math.IsInf(got[1].Ms[0], 1) || !math.IsInf(got[2].Ms[0], -1) {
		t.Errorf("special values corrupted: %v %v %v", got[0].Ms[0], got[1].Ms[0], got[2].Ms[0])
	}
}

func TestWriterRejectsWrongShape(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, "t.rec"), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write(&model.Record{Dims: []int64{1}, Ms: []float64{1}}); err == nil {
		t.Error("wrong dim count accepted")
	}
	if err := w.Write(&model.Record{Dims: []int64{1, 2}, Ms: nil}); err == nil {
		t.Error("wrong measure count accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.rec")); err == nil {
		t.Error("missing file opened")
	}
	bad := filepath.Join(dir, "bad.rec")
	if err := os.WriteFile(bad, []byte("not a record file, definitely not 32 bytes of header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	short := filepath.Join(dir, "short.rec")
	if err := os.WriteFile(short, []byte("AW"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTruncatedBody(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.rec")
	recs := randRecords(rand.New(rand.NewSource(2)), 10, 2, 1)
	if err := WriteAll(path, 2, 1, recs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadAll(path)
	if err == nil {
		t.Fatal("truncated body read without error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec1 := filepath.Join(dir, "a.rec")
	csvPath := filepath.Join(dir, "a.csv")
	rec2 := filepath.Join(dir, "b.rec")
	recs := randRecords(rand.New(rand.NewSource(5)), 50, 2, 1)
	if err := WriteAll(rec1, 2, 1, recs); err != nil {
		t.Fatal(err)
	}
	if err := ExportCSV(rec1, csvPath, []string{"a", "b", "m"}); err != nil {
		t.Fatal(err)
	}
	n, err := ImportCSV(csvPath, rec2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("imported %d records", n)
	}
	got, _, err := ReadAll(rec2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if got[i].Dims[0] != recs[i].Dims[0] || got[i].Ms[0] != recs[i].Ms[0] {
			t.Fatalf("record %d corrupted in CSV round trip", i)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("a,b\nx,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportCSV(bad, filepath.Join(dir, "o.rec"), 1); err == nil {
		t.Error("non-integer dimension accepted")
	}
	if _, err := ImportCSV(bad, filepath.Join(dir, "o.rec"), 5); err == nil {
		t.Error("too many dims accepted")
	}
	if _, err := ImportCSV(filepath.Join(dir, "none.csv"), filepath.Join(dir, "o.rec"), 1); err == nil {
		t.Error("missing csv accepted")
	}
	badm := filepath.Join(dir, "badm.csv")
	if err := os.WriteFile(badm, []byte("a,m\n1,zz\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportCSV(badm, filepath.Join(dir, "o.rec"), 1); err == nil {
		t.Error("non-numeric measure accepted")
	}
	rec := filepath.Join(dir, "x.rec")
	if err := WriteAll(rec, 1, 0, []model.Record{{Dims: []int64{1}, Ms: []float64{}}}); err != nil {
		t.Fatal(err)
	}
	if err := ExportCSV(rec, filepath.Join(dir, "x.csv"), []string{"a", "extra"}); err == nil {
		t.Error("wrong column count accepted")
	}
}
