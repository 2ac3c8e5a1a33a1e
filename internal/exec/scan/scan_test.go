package scan

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"awra/internal/model"
	"awra/internal/qguard"
	"awra/internal/storage"
)

func randRecords(n, dims, ms int, seed int64) []model.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]model.Record, n)
	for i := range recs {
		r := model.Record{Dims: make([]int64, dims), Ms: make([]float64, ms)}
		for j := range r.Dims {
			r.Dims[j] = rng.Int63n(1000)
		}
		for j := range r.Ms {
			r.Ms[j] = float64(rng.Intn(100))
		}
		recs[i] = r
	}
	return recs
}

func writeFile(t *testing.T, path string, recs []model.Record, dims, ms int) {
	t.Helper()
	w, err := storage.Create(path, dims, ms)
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
}

// readAllBatched drains a Reader into decoded records.
func readAllBatched(t *testing.T, r *Reader, dims, ms int) []model.Record {
	t.Helper()
	var out []model.Record
	for {
		batch, err := r.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			return out
		}
		for _, row := range batch {
			rec := model.Record{Dims: make([]int64, dims), Ms: make([]float64, ms)}
			row.DecodeInto(rec.Dims, rec.Ms)
			out = append(out, rec)
		}
	}
}

func sameRecords(a, b []model.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i].Dims {
			if a[i].Dims[j] != b[i].Dims[j] {
				return false
			}
		}
		for j := range a[i].Ms {
			if a[i].Ms[j] != b[i].Ms[j] {
				return false
			}
		}
	}
	return true
}

// TestReaderMatchesRowDecoder: the batched reader must deliver exactly
// the records the row-at-a-time storage reader does, across batch
// sizes that do and do not align with row boundaries.
func TestReaderMatchesRowDecoder(t *testing.T) {
	dir := t.TempDir()
	recs := randRecords(3000, 3, 2, 1)
	path := filepath.Join(dir, "f.rec")
	writeFile(t, path, recs, 3, 2)

	want, _, err := storage.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bb := range []int{0, MinBatchBytes, MinBatchBytes + 13} {
		r, err := Open(path, Options{BatchBytes: bb})
		if err != nil {
			t.Fatal(err)
		}
		got := readAllBatched(t, r, 3, 2)
		r.Close()
		if !sameRecords(want, got) {
			t.Fatalf("BatchBytes=%d: batched rows differ from row decoder", bb)
		}
		if r.Header().Count != int64(len(recs)) {
			t.Fatalf("Header().Count = %d, want %d", r.Header().Count, len(recs))
		}
	}
}

// TestReaderBufferSizedFromHeader: NextBatch's buffer holds one batch
// — batchRows rows, fewer when the read size or the file is smaller,
// and one row for an empty file — at every file size, and each fill
// into it is one batch. The view slice is sized with the buffer and
// never grows. Each fill is charged the rows it had room for, so a file
// that is a whole number of batches reads at a fill of 1000 permille
// and one that is not reads its last, partial batch as such.
func TestReaderBufferSizedFromHeader(t *testing.T) {
	dir := t.TempDir()
	const disk = 3*8 + 2*8 + 4
	const oddRows = (MinBatchBytes + 13) / disk // rows in a read of MinBatchBytes+13
	for _, tc := range []struct {
		rows, batchBytes int
		bufRows, batches int
	}{
		{3000, 0, 3000, 1},
		{2 * batchRows, 0, batchRows, 2},
		{10000, 0, batchRows, 3},
		{100_000, 0, batchRows, 25},
		{3000, MinBatchBytes + 13, oddRows, 3},
		{0, 0, 1, 0},
	} {
		path := filepath.Join(dir, "f.rec")
		writeFile(t, path, randRecords(tc.rows, 3, 2, 5), 3, 2)
		r, err := Open(path, Options{BatchBytes: tc.batchBytes})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d rows, BatchBytes %d", tc.rows, tc.batchBytes)
		if r.buf != nil || r.views != nil {
			t.Errorf("%s: buffers allocated before the first batch", name)
		}
		rows, batches, viewCap := 0, 0, -1
		for {
			batch, err := r.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if viewCap < 0 {
				viewCap = cap(r.views)
			}
			if batch == nil {
				break
			}
			if len(batch) > batchRows {
				t.Errorf("%s: a batch of %d views, want at most %d", name, len(batch), batchRows)
			}
			rows += len(batch)
			batches++
		}
		if len(r.buf) != tc.bufRows*disk || len(r.buf) > batchRows*disk {
			t.Errorf("%s: buffer of %d bytes, want %d, at most %d", name, len(r.buf), tc.bufRows*disk, batchRows*disk)
		}
		if rows != tc.rows || batches != tc.batches {
			t.Errorf("%s: read %d rows in %d batches, want %d in %d", name, rows, batches, tc.rows, tc.batches)
		}
		if viewCap != tc.bufRows || cap(r.views) != viewCap {
			t.Errorf("%s: view slice of %d, then %d, want %d throughout", name, viewCap, cap(r.views), tc.bufRows)
		}
		r.Close() // the buffer goes back to the pool: read it before
		st := r.ReadStats()
		var fill int64
		if tc.batches > 0 {
			fill = int64(tc.rows * 1000 / (tc.batches * tc.bufRows))
		}
		if st.Chunks != int64(tc.batches) || st.FillPermille != fill {
			t.Errorf("%s: %d chunks filled to %d permille, want %d chunks at %d", name, st.Chunks, st.FillPermille, tc.batches, fill)
		}
		if whole := tc.rows > 0 && tc.rows%tc.bufRows == 0; whole && st.FillPermille != 1000 {
			t.Errorf("%s: a whole number of batches filled to %d permille, want 1000", name, st.FillPermille)
		}
	}
}

// TestReadersNeverShareABatch: readers open at the same time hold
// their own batch buffers, so one reader's views keep their bytes while
// another fills, whether the buffers are new or recycled. Closing a
// reader twice gives its buffer back once: two readers opened after it
// still hold a buffer each.
func TestReadersNeverShareABatch(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 2; i++ {
		p := filepath.Join(dir, fmt.Sprintf("f%d.rec", i))
		writeFile(t, p, randRecords(2*batchRows+5, 3, 2, int64(i)), 3, 2)
		paths = append(paths, p)
	}
	open := func(path string) *Reader {
		r, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for round := 0; round < 3; round++ {
		a := open(paths[0])
		held, err := a.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, len(held))
		for i, v := range held {
			want[i] = append([]byte(nil), v...)
		}
		b := open(paths[1])
		if got := readAllBatched(t, b, 3, 2); len(got) != 2*batchRows+5 {
			t.Fatalf("round %d: the second reader read %d rows", round, len(got))
		}
		for i, v := range held {
			if string(v) != string(want[i]) {
				t.Fatalf("round %d: view %d changed while another reader filled", round, i)
			}
		}
		a.Close()
		b.Close()
	}
	a := open(paths[0])
	if _, err := a.NextBatch(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // gives nothing back twice
	c, d := open(paths[0]), open(paths[1])
	defer c.Close()
	defer d.Close()
	for _, r := range []*Reader{c, d} {
		if _, err := r.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
	if &c.buf[0] == &d.buf[0] || &c.views[:1][0] == &d.views[:1][0] {
		t.Fatal("two open readers share a batch buffer after a double Close")
	}
}

// writeV1File hand-writes a version-1 (checksum-less) record file.
func writeV1File(t *testing.T, path string, recs []model.Record, dims, ms int) {
	t.Helper()
	buf := make([]byte, 32, 32+len(recs)*8*(dims+ms))
	copy(buf, "AWRA")
	binary.LittleEndian.PutUint32(buf[4:], 1)
	binary.LittleEndian.PutUint32(buf[8:], uint32(dims))
	binary.LittleEndian.PutUint32(buf[12:], uint32(ms))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(recs)))
	var row [8]byte
	for _, r := range recs {
		for _, v := range r.Dims {
			binary.LittleEndian.PutUint64(row[:], uint64(v))
			buf = append(buf, row[:]...)
		}
		for _, v := range r.Ms {
			binary.LittleEndian.PutUint64(row[:], math.Float64bits(v))
			buf = append(buf, row[:]...)
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReaderVersion1: checksum-less v1 files read identically through
// the batched reader (rows have no CRC suffix to strip or verify).
func TestReaderVersion1(t *testing.T) {
	dir := t.TempDir()
	recs := randRecords(500, 2, 1, 2)
	path := filepath.Join(dir, "v1.rec")
	writeV1File(t, path, recs, 2, 1)

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Header().Version != 1 {
		t.Fatalf("version %d, want 1", r.Header().Version)
	}
	got := readAllBatched(t, r, 2, 1)
	if !sameRecords(recs, got) {
		t.Fatal("v1 rows differ")
	}

	// A v1 header with no columns declares rows of no bytes: corrupt, not
	// a division by zero.
	empty := make([]model.Record, 3)
	for i := range empty {
		empty[i] = model.Record{Dims: []int64{}, Ms: []float64{}}
	}
	writeV1File(t, path, empty, 0, 0)
	if _, err := Open(path, Options{}); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("rows of no columns: got %v, want ErrCorrupt", err)
	}
}

// TestReaderCorruptRow: a flipped payload byte in a v2 file fails the
// row's CRC — an error by default, a skip under a degraded-read guard.
func TestReaderCorruptRow(t *testing.T) {
	dir := t.TempDir()
	recs := randRecords(100, 2, 1, 3)
	path := filepath.Join(dir, "c.rec")
	writeFile(t, path, recs, 2, 1)

	// Flip one byte in the middle of row 40's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diskRow := 8*3 + 4
	raw[32+40*diskRow+5] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.NextBatch()
	r.Close()
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("corrupt row: got %v, want ErrCorrupt", err)
	}

	g := qguard.New(context.Background(), qguard.Limits{SkipCorruptRows: true})
	r, err = Open(path, Options{Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := readAllBatched(t, r, 2, 1)
	if len(got) != len(recs)-1 {
		t.Fatalf("degraded read kept %d rows, want %d", len(got), len(recs)-1)
	}
	if n := r.ReadStats().CorruptRows; n != 1 {
		t.Fatalf("ReadStats().CorruptRows = %d, want 1", n)
	}
}

// TestReaderTornTail: a file truncated mid-row reads as corrupt, not
// as a silent short result.
func TestReaderTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := randRecords(50, 2, 1, 4)
	path := filepath.Join(dir, "torn.rec")
	writeFile(t, path, recs, 2, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		batch, err := r.NextBatch()
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("torn tail: got %v, want ErrCorrupt", err)
			}
			return
		}
		if batch == nil {
			t.Fatal("torn file read to completion without error")
		}
	}
}

// TestBatcherRoundTrip: in-memory records open as the same view layout
// as the file reader's.
func TestBatcherRoundTrip(t *testing.T) {
	recs := randRecords(1300, 4, 2, 5)
	in, err := RecordsInput(recs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if h := b.Header(); h.NumDims != 4 || h.NumMeasures != 2 || h.Count != 1300 {
		t.Fatalf("header %+v, want 4 dims, 2 measures, 1300 rows", h)
	}
	var got []model.Record
	for {
		batch, err := b.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			rec := model.Record{Dims: make([]int64, 4), Ms: make([]float64, 2)}
			row.DecodeInto(rec.Dims, rec.Ms)
			got = append(got, rec)
		}
	}
	if !sameRecords(recs, got) {
		t.Fatal("batcher rows differ from source records")
	}
}

// TestRecordsInputShape: a record of the wrong shape is rejected when
// the input is made, with its index, and never reaches a reader.
func TestRecordsInputShape(t *testing.T) {
	recs := randRecords(10, 4, 2, 6)
	recs[7].Dims = recs[7].Dims[:1]
	_, err := RecordsInput(recs, 4, 2)
	var se *ShapeError
	if !errors.As(err, &se) || se.Index != 7 || se.Dims != 1 || se.WantDims != 4 {
		t.Fatalf("got %v, want a ShapeError naming record 7", err)
	}
	if _, err := RecordsInput(recs[:7], 4, 1); !errors.As(err, &se) || se.Index != 0 || se.Measures != 2 {
		t.Fatalf("got %v, want a ShapeError naming record 0's measures", err)
	}
}
