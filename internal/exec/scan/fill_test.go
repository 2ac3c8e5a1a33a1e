package scan

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"awra/internal/model"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// headerBytes is the record format's fixed file header size.
const headerBytes = 32

// chunkedFS opens files whose every Read returns at most the next size
// of a cycle (at least one byte), as a pipe or a network file system
// may: the reader must split the stream into the same rows however its
// reads are cut.
type chunkedFS []int

func (c chunkedFS) Create(name string) (storage.File, error) { return storage.OSFS{}.Create(name) }

func (c chunkedFS) Open(name string) (storage.File, error) {
	f, err := storage.OSFS{}.Open(name)
	if err != nil {
		return nil, err
	}
	return &chunkedFile{File: f, sizes: c}, nil
}

type chunkedFile struct {
	storage.File
	sizes []int
	i     int
}

func (f *chunkedFile) Read(p []byte) (int, error) {
	if len(f.sizes) > 0 {
		n := max(f.sizes[f.i%len(f.sizes)], 1)
		f.i++
		if len(p) > n {
			p = p[:n]
		}
	}
	return f.File.Read(p)
}

// readRows drains a reader, copying each disk row out of its view, and
// returns them with the error that ended the read.
func readRows(r *Reader) ([][]byte, error) {
	var rows [][]byte
	for {
		batch, err := r.NextBatch()
		if err != nil || batch == nil {
			return rows, err
		}
		for _, row := range batch {
			rows = append(rows, append([]byte(nil), row...))
		}
	}
}

// TestSplitterAllChunkings: the reader splits a file into the same rows
// however the file system cuts its reads — every fixed read size from
// one byte to past three rows — in both format versions, and a file
// torn mid-row yields its whole rows and then ErrCorrupt.
func TestSplitterAllChunkings(t *testing.T) {
	dir := t.TempDir()
	recs := randRecords(10, 2, 1, 9)
	for _, version := range []int{1, 2} {
		path := filepath.Join(dir, "f.rec")
		if version == 1 {
			writeV1File(t, path, recs, 2, 1)
		} else {
			writeFile(t, path, recs, 2, 1)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rowBytes := (len(raw) - headerBytes) / len(recs)
		want := make([][]byte, 9)
		for i := range want {
			want[i] = raw[headerBytes+i*rowBytes : headerBytes+(i+1)*rowBytes]
		}
		// Nine whole rows of the ten the header declares, and half the tenth.
		torn := raw[:headerBytes+9*rowBytes+rowBytes/2]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		for chunk := 1; chunk <= rowBytes*3+1; chunk++ {
			restore := storage.SwapFS(chunkedFS{chunk})
			r, err := Open(path, Options{RawRows: true})
			if err != nil {
				restore()
				t.Fatal(err)
			}
			rows, err := readRows(r)
			r.Close()
			restore()
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("v%d, reads of %d bytes: got %v, want ErrCorrupt after the whole rows", version, chunk, err)
			}
			if len(rows) != len(want) {
				t.Fatalf("v%d, reads of %d bytes: %d rows, want %d", version, chunk, len(rows), len(want))
			}
			for i := range rows {
				if !bytes.Equal(rows[i], want[i]) {
					t.Fatalf("v%d, reads of %d bytes: row %d differs", version, chunk, i)
				}
			}
		}
	}
}

// FuzzSplitter feeds arbitrary rows through arbitrary read cuts — rows
// straddling every read boundary, torn tails of every length — and
// checks the reader's invariant: the rows it hands out, concatenated,
// are the file's whole rows exactly, and a torn tail ends the read with
// ErrCorrupt. The rows are a checksum-free file's, so any bytes are a
// valid row.
func FuzzSplitter(f *testing.F) {
	f.Add(uint8(2), []byte("0123456789abcdefghijklmnopqrstuvwxyz"), []byte{1, 24, 3})
	f.Add(uint8(3), bytes.Repeat([]byte{0xAA}, 100), []byte{27, 29})
	f.Add(uint8(0), []byte{}, []byte{})
	f.Add(uint8(7), bytes.Repeat([]byte{1, 2, 3}, 40), []byte{6, 8, 7, 1})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, rb uint8, data []byte, chunking []byte) {
		cols := int(rb)%8 + 1
		rowBytes := 8 * cols
		hdr := make([]byte, headerBytes)
		copy(hdr, "AWRA")
		binary.LittleEndian.PutUint32(hdr[4:], 1)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(cols))
		binary.LittleEndian.PutUint64(hdr[16:], uint64((len(data)+rowBytes-1)/rowBytes))
		path := filepath.Join(dir, "fuzz.rec")
		if err := os.WriteFile(path, append(hdr, data...), 0o644); err != nil {
			t.Fatal(err)
		}
		sizes := make(chunkedFS, len(chunking))
		for i, c := range chunking {
			sizes[i] = int(c)
		}
		defer storage.SwapFS(sizes)()
		r, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rows, err := readRows(r)
		if torn := len(data)%rowBytes != 0; torn != errors.Is(err, storage.ErrCorrupt) || (!torn && err != nil) {
			t.Fatalf("%d bytes of %d-byte rows: read ended with %v", len(data), rowBytes, err)
		}
		got := bytes.Join(rows, nil)
		if want := data[:len(data)/rowBytes*rowBytes]; !bytes.Equal(got, want) {
			t.Fatalf("rows differ from the file's: %d bytes read, %d whole", len(got), len(want))
		}
	})
}

// TestSortFillSkipsWhatTheReaderSkips: the sort's in-place fill, under a
// degraded-read guard, keeps and counts exactly the rows the reader
// keeps and counts — corrupt rows at the start of a chunk, in a run, at
// the end of the file, and a whole chunk of them — whether the input
// stays in memory or spills; in strict mode both fail on the same row.
func TestSortFillSkipsWhatTheReaderSkips(t *testing.T) {
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	recs := randRecords(6000, 2, 1, 21)
	for i := range recs {
		recs[i].Ms[0] = float64(i)
	}
	writeFile(t, fact, recs, 2, 1)
	raw, err := os.ReadFile(fact)
	if err != nil {
		t.Fatal(err)
	}
	const diskRow = 3*8 + 4
	chunkRows := MinBatchBytes / diskRow
	bad := []int{0, 1, 2, 700, 701, 702, 703, len(recs) - 1}
	for i := chunkRows; i < 2*chunkRows; i++ {
		bad = append(bad, i) // the whole second chunk
	}
	for _, i := range bad {
		raw[headerBytes+i*diskRow+3] ^= 0x5A
	}
	if err := os.WriteFile(fact, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	skip := func() *qguard.Guard {
		return qguard.New(context.Background(), qguard.Limits{SkipCorruptRows: true})
	}

	g := skip()
	r, err := Open(fact, Options{BatchBytes: MinBatchBytes, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	want := readAllBatched(t, r, 2, 1)
	st := r.ReadStats()
	r.Close()
	if st.CorruptRows != int64(len(bad)) || len(want) != len(recs)-len(bad) {
		t.Fatalf("reader skipped %d rows and kept %d, want %d and %d", st.CorruptRows, len(want), len(bad), len(recs)-len(bad))
	}
	storage.SortRecords(want, func(a, b *model.Record) bool {
		return a.Dims[0] < b.Dims[0] || a.Dims[0] == b.Dims[0] && a.Dims[1] < b.Dims[1]
	})
	for _, chunk := range []int{0, 1000} {
		g := skip()
		sorted, err := SortByKey(FileInput(fact), nil, nil, nil, 1, EngineOptions{
			ChunkRecords: chunk, TempDir: dir, ReadBatchBytes: MinBatchBytes, Guard: g,
		})
		if err != nil {
			t.Fatalf("ChunkRecords=%d: %v", chunk, err)
		}
		got := drainSorted(t, sorted, 1, 2, 1)[0]
		stats := sorted.Stats()
		sorted.Close()
		if stats.Records != int64(len(want)) || g.CorruptRows() != st.CorruptRows {
			t.Errorf("ChunkRecords=%d: sort kept %d rows and skipped %d, reader %d and %d",
				chunk, stats.Records, g.CorruptRows(), len(want), st.CorruptRows)
		}
		if !sameRecords(want, got) {
			t.Errorf("ChunkRecords=%d: the sort's rows are not the reader's, sorted", chunk)
		}
	}

	r, err = Open(fact, Options{BatchBytes: MinBatchBytes})
	if err != nil {
		t.Fatal(err)
	}
	_, readErr := r.NextBatch()
	r.Close()
	_, sortErr := SortByKey(FileInput(fact), nil, nil, nil, 1, EngineOptions{TempDir: dir, ReadBatchBytes: MinBatchBytes})
	if !errors.Is(readErr, storage.ErrCorrupt) || sortErr == nil || sortErr.Error() != readErr.Error() {
		t.Errorf("strict mode: reader failed with %v, sort with %v; want the same ErrCorrupt", readErr, sortErr)
	}
}
