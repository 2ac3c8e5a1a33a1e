// Package storage provides the fact-table substrate for the engines:
// a fixed-width binary record format with self-describing headers and
// per-row checksums, buffered readers and writers, CSV import/export,
// and the filesystem seam tests inject faults through. The external
// sort over this format lives in internal/exec/scan.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"awra/internal/model"
	"awra/internal/qguard"
)

// File layout: a 32-byte header followed by fixed-width records. Each
// record is NumDims int64 values then NumMeasures float64 values, all
// little-endian. Version 2 files append a CRC32-C checksum of the row
// payload to every record, so a flipped bit or torn write surfaces as
// ErrCorrupt (or is skipped and counted in degraded mode) instead of
// silently feeding garbage codes to the engines. Version 1 files (no
// checksums) remain readable.
const (
	magic         = "AWRA"
	formatVersion = 2
	headerSize    = 32
	crcBytes      = 4
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a file fails structural validation or a
// row fails its checksum.
var ErrCorrupt = errors.New("storage: corrupt record file")

// Header describes the contents of a record file.
type Header struct {
	NumDims     int
	NumMeasures int
	Count       int64
	// Version is the on-disk format version the file was written with
	// (1 = no row checksums, 2 = CRC32-C per row). Create writes the
	// current version, CreateRaw the one given (0 = current).
	Version int
}

// recordBytes is the payload size of one record (codes + measures).
func (h Header) recordBytes() int { return 8 * (h.NumDims + h.NumMeasures) }

// diskRecordBytes is the on-disk size of one record, including the
// checksum suffix for version-2 files.
func (h Header) diskRecordBytes() int {
	if h.Version >= 2 {
		return h.recordBytes() + crcBytes
	}
	return h.recordBytes()
}

func (h Header) marshal() []byte {
	b := make([]byte, headerSize)
	copy(b, magic)
	v := h.Version
	if v == 0 {
		v = formatVersion
	}
	binary.LittleEndian.PutUint32(b[4:], uint32(v))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.NumDims))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.NumMeasures))
	binary.LittleEndian.PutUint64(b[16:], uint64(h.Count))
	return b
}

func unmarshalHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < headerSize || string(b[:4]) != magic {
		return h, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(b[4:])
	if v < 1 || v > formatVersion {
		return h, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	h.Version = int(v)
	h.NumDims = int(binary.LittleEndian.Uint32(b[8:]))
	h.NumMeasures = int(binary.LittleEndian.Uint32(b[12:]))
	h.Count = int64(binary.LittleEndian.Uint64(b[16:]))
	if h.NumDims < 0 || h.NumDims > 1<<16 || h.NumMeasures < 0 || h.NumMeasures > 1<<16 {
		return h, fmt.Errorf("%w: implausible shape %d dims, %d measures", ErrCorrupt, h.NumDims, h.NumMeasures)
	}
	return h, nil
}

// Writer writes a record file, buffering rows and fixing up the record
// count in the header on Close. Write encodes model records; WriteRow
// appends pre-encoded disk rows verbatim, which is how the byte sort
// moves rows: checksums computed when the rows were first written
// travel with them, so a sorted copy needs no re-hashing and carries
// torn-write detection through.
type Writer struct {
	f     File
	hdr   Header
	buf   []byte
	row   []byte // Write's encoding scratch
	count int64
	werr  error
}

// Create opens a new record file for writing, truncating any existing
// file at the path. Files are written in the current format version
// (per-row checksums).
func Create(path string, numDims, numMeasures int) (*Writer, error) {
	return CreateRaw(path, Header{NumDims: numDims, NumMeasures: numMeasures})
}

// CreateRaw opens a new record file with the given shape and format
// version (0 means the current version).
func CreateRaw(path string, hdr Header) (*Writer, error) {
	if hdr.Version == 0 {
		hdr.Version = formatVersion
	}
	f, err := filesystem.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	w := &Writer{f: f, hdr: hdr, buf: make([]byte, 0, 1<<20), row: make([]byte, hdr.diskRecordBytes())}
	w.buf = append(w.buf, w.hdr.marshal()...)
	return w, nil
}

// Write appends one record. The record's shape must match the file's.
func (w *Writer) Write(r *model.Record) error {
	if len(r.Dims) != w.hdr.NumDims || len(r.Ms) != w.hdr.NumMeasures {
		return fmt.Errorf("storage: record shape (%d,%d) does not match file (%d,%d)",
			len(r.Dims), len(r.Ms), w.hdr.NumDims, w.hdr.NumMeasures)
	}
	b := w.row
	for i, v := range r.Dims {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	off := 8 * len(r.Dims)
	for i, v := range r.Ms {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(v))
	}
	if w.hdr.Version >= 2 {
		payload := w.hdr.recordBytes()
		binary.LittleEndian.PutUint32(b[payload:], crc32.Checksum(b[:payload], castagnoli))
	}
	return w.WriteRow(b)
}

// WriteRow appends one disk row (DiskRowBytes bytes, checksum
// included for v2 shapes). The bytes are copied.
func (w *Writer) WriteRow(row []byte) error {
	w.buf = append(w.buf, row...)
	w.count++
	if len(w.buf) >= 1<<20 {
		return w.flush()
	}
	return nil
}

func (w *Writer) flush() error {
	if len(w.buf) == 0 || w.werr != nil {
		return w.werr
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.werr = fmt.Errorf("storage: write rows: %w", err)
		return w.werr
	}
	w.buf = w.buf[:0]
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.count }

// Close flushes buffered rows, rewrites the header with the final
// record count, and closes the file.
func (w *Writer) Close() error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	w.hdr.Count = w.count
	if _, err := w.f.WriteAt(w.hdr.marshal(), 0); err != nil {
		w.f.Close()
		return fmt.Errorf("storage: rewrite header: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("storage: close: %w", err)
	}
	return nil
}

// Reader reads records from a file sequentially.
type Reader struct {
	f     File
	r     *bufio.Reader
	hdr   Header
	buf   []byte
	read  int64
	guard *qguard.Guard
	// corrupt counts checksum-failing rows skipped in degraded mode
	// (also reported to the guard).
	corrupt int64
}

// Open opens a record file for reading and validates its header.
func Open(path string) (*Reader, error) { return OpenGuarded(path, nil) }

// OpenGuarded opens a record file under a query guard: Next checks the
// guard for cancellation at a stride, and checksum-failing rows follow
// the guard's degraded-read policy (skip and count vs. fail). A nil
// guard behaves exactly like Open.
func OpenGuarded(path string, g *qguard.Guard) (*Reader, error) {
	f, hdr, err := OpenRaw(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	return &Reader{f: f, r: br, hdr: hdr, buf: make([]byte, hdr.diskRecordBytes()), guard: g}, nil
}

// Header returns the file's header.
func (r *Reader) Header() Header { return r.hdr }

// CorruptSkipped returns how many checksum-failing rows this reader
// skipped in degraded mode.
func (r *Reader) CorruptSkipped() int64 { return r.corrupt }

// guardStride is how many records a reader consumes between guard
// checks: small enough that canceling a scan over millions of rows
// responds in well under 250ms, large enough to stay out of the hot
// loop's profile.
const guardStride = 256

// Next reads the next record into rec, resizing its slices as needed.
// It returns false at clean end-of-file. Rows failing their checksum
// return ErrCorrupt, or are skipped and counted when the reader's
// guard enables degraded mode.
func (r *Reader) Next(rec *model.Record) (bool, error) {
	for {
		if r.read >= r.hdr.Count {
			return false, nil
		}
		if r.read%guardStride == 0 {
			if err := r.guard.Err(); err != nil {
				return false, err
			}
		}
		if _, err := io.ReadFull(r.r, r.buf); err != nil {
			return false, fmt.Errorf("storage: truncated file (record %d of %d): %w (%w)", r.read, r.hdr.Count, err, ErrCorrupt)
		}
		r.read++
		if r.hdr.Version >= 2 {
			payload := r.hdr.recordBytes()
			want := binary.LittleEndian.Uint32(r.buf[payload:])
			if crc32.Checksum(r.buf[:payload], castagnoli) != want {
				if r.guard.SkipCorruptRows() {
					r.corrupt++
					r.guard.NoteCorruptRows(r.corrupt)
					continue
				}
				return false, fmt.Errorf("storage: checksum mismatch (record %d of %d): %w", r.read-1, r.hdr.Count, ErrCorrupt)
			}
		}
		break
	}
	if cap(rec.Dims) < r.hdr.NumDims {
		rec.Dims = make([]int64, r.hdr.NumDims)
	}
	rec.Dims = rec.Dims[:r.hdr.NumDims]
	if cap(rec.Ms) < r.hdr.NumMeasures {
		rec.Ms = make([]float64, r.hdr.NumMeasures)
	}
	rec.Ms = rec.Ms[:r.hdr.NumMeasures]
	for i := range rec.Dims {
		rec.Dims[i] = int64(binary.LittleEndian.Uint64(r.buf[8*i:]))
	}
	off := 8 * r.hdr.NumDims
	for i := range rec.Ms {
		rec.Ms[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[off+8*i:]))
	}
	return true, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// SortRecords sorts an in-memory record slice (stable): with
// model.SortKey.RecordLess, the reference for the order the engines'
// external sort produces.
func SortRecords(recs []model.Record, less func(a, b *model.Record) bool) {
	sort.SliceStable(recs, func(i, j int) bool { return less(&recs[i], &recs[j]) })
}

// SortStats reports what an external sort did; the benchmark harness
// uses it for the paper's sort-vs-scan cost breakdown (Figure 6(e)).
type SortStats struct {
	Records int64
	Runs    int
}

// WriteAll writes a record slice to a file.
func WriteAll(path string, numDims, numMeasures int, recs []model.Record) error {
	w, err := Create(path, numDims, numMeasures)
	if err != nil {
		return err
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.Close()
}

// ReadAll loads an entire record file into memory.
func ReadAll(path string) ([]model.Record, Header, error) {
	r, err := Open(path)
	if err != nil {
		return nil, Header{}, err
	}
	defer r.Close()
	recs := make([]model.Record, 0, r.hdr.Count)
	for {
		var rec model.Record
		ok, err := r.Next(&rec)
		if err != nil {
			return nil, r.hdr, err
		}
		if !ok {
			return recs, r.hdr, nil
		}
		recs = append(recs, rec)
	}
}
