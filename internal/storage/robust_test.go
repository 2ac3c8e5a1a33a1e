package storage_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"awra/internal/faultfs"
	"awra/internal/model"
	"awra/internal/qguard"
	"awra/internal/storage"
)

func mkRecs(n int) []model.Record {
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{
			Dims: []int64{int64(i), int64(i % 7)},
			Ms:   []float64{float64(i) * 1.5},
		}
	}
	return recs
}

func writeFile(t *testing.T, path string, recs []model.Record) {
	t.Helper()
	if err := storage.WriteAll(path, 2, 1, recs); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.rec")
	recs := mkRecs(1000)
	writeFile(t, path, recs)
	got, hdr, err := storage.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != storage.FormatVersionForTest {
		t.Fatalf("version %d, want %d", hdr.Version, storage.FormatVersionForTest)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Dims[0] != recs[i].Dims[0] || got[i].Ms[0] != recs[i].Ms[0] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestVersion1FilesStillReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.rec")
	recs := mkRecs(100)
	w, err := storage.CreateRaw(path, storage.Header{NumDims: 2, NumMeasures: 1, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, hdr, err := storage.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 1 {
		t.Fatalf("version %d, want 1", hdr.Version)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Dims[0] != recs[i].Dims[0] || got[i].Ms[0] != recs[i].Ms[0] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// corruptRecord flips one byte inside record i's payload on disk.
func corruptRecord(t *testing.T, path string, i int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := storage.UnmarshalHeaderForTest(b[:storage.HeaderSizeForTest])
	if err != nil {
		t.Fatal(err)
	}
	off := storage.HeaderSizeForTest + i*hdr.DiskRecordBytesForTest()
	b[off] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptRowDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.rec")
	writeFile(t, path, mkRecs(50))
	corruptRecord(t, path, 17)
	_, _, err := storage.ReadAll(path)
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestCorruptRowSkippedInDegradedMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.rec")
	recs := mkRecs(50)
	writeFile(t, path, recs)
	corruptRecord(t, path, 17)
	corruptRecord(t, path, 31)
	g := qguard.New(context.Background(), qguard.Limits{SkipCorruptRows: true})
	r, err := storage.OpenGuarded(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []model.Record
	for {
		var rec model.Record
		ok, err := r.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, rec.Clone())
	}
	if len(got) != 48 {
		t.Fatalf("read %d records, want 48", len(got))
	}
	if r.CorruptSkipped() != 2 || g.CorruptRows() != 2 {
		t.Fatalf("skipped=%d guard=%d, want 2", r.CorruptSkipped(), g.CorruptRows())
	}
	for _, rec := range got {
		if rec.Dims[0] == 17 || rec.Dims[0] == 31 {
			t.Fatalf("corrupt record %d leaked into results", rec.Dims[0])
		}
	}
}

func TestTruncatedFileDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.rec")
	writeFile(t, path, mkRecs(50))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = storage.ReadAll(path)
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestReaderCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.rec")
	writeFile(t, path, mkRecs(10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := storage.OpenGuarded(path, qguard.New(ctx, qguard.Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rec model.Record
	if _, err := r.Next(&rec); !errors.Is(err, qguard.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestShortReadsResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.rec")
	recs := mkRecs(64)
	writeFile(t, path, recs)

	restore := storage.SwapFS(faultfs.New().ShortReads())
	defer restore()
	got, _, err := storage.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records under short reads, want %d", len(got), len(recs))
	}
}
