// Package scan is the batched record pipeline under the engines: it
// reads fact files in large chunks through storage.FileSystem, splits
// the chunks at record boundaries, verifies each row's CRC32-C in
// place, and hands engines batches of zero-copy byte-slice row views
// instead of one decoded model.Record at a time. Per-row work drops to
// the aggregate updates themselves; guard checks (cancellation,
// budgets) move to batch boundaries.
//
// An Input names where the records live — a file, or an in-memory
// slice — and opens either as the same Record views, so engines keep
// exactly one hot loop.
package scan

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"awra/internal/qguard"
	"awra/internal/storage"
)

// Record is a zero-copy view of one row's payload bytes: NumDims
// little-endian int64 codes followed by NumMeasures little-endian
// float64 values. Views are valid only until the next NextBatch call
// on their producer.
type Record []byte

// Dim returns the record's base code for dimension i.
func (r Record) Dim(i int) int64 {
	return int64(binary.LittleEndian.Uint64(r[8*i:]))
}

// Measure returns measure i of a record with numDims dimensions.
func (r Record) Measure(numDims, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r[8*(numDims+i):]))
}

// DecodeInto fills a dims/measures pair from the row (for cold paths
// that need a materialized record, e.g. filter evaluation).
func (r Record) DecodeInto(dims []int64, ms []float64) {
	for i := range dims {
		dims[i] = int64(binary.LittleEndian.Uint64(r[8*i:]))
	}
	off := 8 * len(dims)
	for i := range ms {
		ms[i] = math.Float64frombits(binary.LittleEndian.Uint64(r[off+8*i:]))
	}
}

// BatchSource is a stream of record batches. A (nil, nil) return means
// end of input. Returned views are valid until the next call.
type BatchSource interface {
	NextBatch() ([]Record, error)
	// Header is the rows' shape, and how many the stream holds (the
	// progress denominator).
	Header() storage.Header
	// Close releases the stream's files.
	Close() error
}

// DefaultBatchBytes is the chunk size Open reads per batch when the
// caller does not override it: large enough to amortize syscall and
// split overhead, small enough to stay cache- and memory-friendly per
// concurrent query.
const DefaultBatchBytes = 4 << 20

// MinBatchBytes is the smallest usable chunk size; Open clamps smaller
// requests (a chunk must at least hold one disk row, and tiny chunks
// defeat the batching).
const MinBatchBytes = 64 << 10

// Options configures a Reader.
type Options struct {
	// BatchBytes is the read-chunk size (0 = DefaultBatchBytes; values
	// below MinBatchBytes are clamped up). A file smaller than that is
	// read as one chunk of its own size.
	BatchBytes int
	// Guard, if non-nil, is checked once per batch for cancellation,
	// and its degraded-read policy decides whether checksum-failing
	// rows are skipped and counted or fail the read.
	Guard *qguard.Guard
	// RawRows emits full disk rows (checksum suffix included) instead
	// of payload views. The byte sort uses it to move verified rows
	// verbatim, checksums travelling with them.
	RawRows bool
}

// Reader reads a record file in large chunks and yields batches of
// verified zero-copy row views.
type Reader struct {
	f        storage.File
	hdr      storage.Header
	sp       *Splitter
	buf      []byte
	rows     []Record
	disk     []Record
	rowBytes int // payload size
	emit     int // emitted view size (payload, or full disk row)
	seen     int64
	corrupt  int64
	// chunks/bytesRead tally the batched read pattern in plain fields
	// (one increment per NextBatch, never per row); engines publish
	// them at phase boundaries via ReadStats.
	chunks    int64
	bytesRead int64
	guard     *qguard.Guard
	eof       bool
}

// ReadStats is a point-in-time view of a reader's batched-read tallies.
// It is flight-recorder food: engines read it once per phase boundary
// and publish under the standard metric names, so the batching behavior
// (chunk count, bytes moved, average chunk fill) of the hot path is
// observable without any per-row instrumentation.
type ReadStats struct {
	// Chunks is the number of read chunks consumed so far.
	Chunks int64
	// BytesRead is the total bytes filled into chunk buffers.
	BytesRead int64
	// Records is the number of rows delivered (corrupt-skipped rows
	// excluded).
	Records int64
	// CorruptRows is the number of checksum-failing rows skipped in
	// degraded mode.
	CorruptRows int64
	// FillPermille is the average chunk fill ratio in permille (1000 =
	// every chunk read completely full); the final, partial chunk of a
	// file drags it below 1000.
	FillPermille int64
}

// ReadStats snapshots the reader's batched-read tallies.
func (r *Reader) ReadStats() ReadStats {
	st := ReadStats{
		Chunks:      r.chunks,
		BytesRead:   r.bytesRead,
		Records:     r.seen - r.corrupt,
		CorruptRows: r.corrupt,
	}
	if r.chunks > 0 && len(r.buf) > 0 {
		st.FillPermille = r.bytesRead * 1000 / (r.chunks * int64(len(r.buf)))
	}
	return st
}

// Open opens a record file for batched reading through the active
// storage FileSystem and validates its header.
func Open(path string, opts Options) (*Reader, error) {
	f, hdr, err := storage.OpenRaw(path)
	if err != nil {
		return nil, err
	}
	bb := opts.BatchBytes
	if bb <= 0 {
		bb = DefaultBatchBytes
	}
	if bb < MinBatchBytes {
		bb = MinBatchBytes
	}
	// A file smaller than the chunk gets a buffer of its own size (the
	// header's count; at least one disk row), and the view slices are
	// sized once for the most rows a chunk can complete.
	db := hdr.DiskRowBytes()
	if hdr.Count < int64(bb/db) {
		bb = int(hdr.Count) * db
	}
	if bb < db {
		bb = db
	}
	emit := hdr.RowBytes()
	if opts.RawRows {
		emit = db
	}
	return &Reader{
		f:        f,
		hdr:      hdr,
		sp:       NewSplitter(db),
		buf:      make([]byte, bb),
		rows:     make([]Record, 0, bb/db+1),
		disk:     make([]Record, 0, bb/db+1),
		rowBytes: hdr.RowBytes(),
		emit:     emit,
		guard:    opts.Guard,
	}, nil
}

// Header returns the file's header.
func (r *Reader) Header() storage.Header { return r.hdr }

// NextBatch reads one chunk and returns the verified row views in it.
// It returns (nil, nil) once the header's record count has been
// delivered. Rows failing their checksum return storage.ErrCorrupt,
// or are skipped and counted when the guard enables degraded reads.
func (r *Reader) NextBatch() ([]Record, error) {
	for {
		if r.seen >= r.hdr.Count {
			return nil, nil
		}
		if err := r.guard.Err(); err != nil {
			return nil, err
		}
		if r.eof {
			return nil, fmt.Errorf("storage: truncated file (record %d of %d): %w (%w)",
				r.seen, r.hdr.Count, io.ErrUnexpectedEOF, storage.ErrCorrupt)
		}
		// Fill the chunk buffer as far as the file allows. Short reads
		// are retried; a clean EOF before the next full row is a torn
		// file (caught above on the next iteration).
		n := 0
		for n < len(r.buf) {
			m, err := r.f.Read(r.buf[n:])
			n += m
			if err == io.EOF {
				r.eof = true
				break
			}
			if err != nil {
				return nil, fmt.Errorf("storage: read records: %w", err)
			}
		}
		r.chunks++
		r.bytesRead += int64(n)
		r.disk = r.sp.Split(r.buf[:n], r.disk[:0])
		if len(r.disk) == 0 {
			continue
		}
		r.rows = r.rows[:0]
		checksummed := r.hdr.Version >= 2
		for _, row := range r.disk {
			if r.seen >= r.hdr.Count {
				break // ignore trailing bytes past the declared count
			}
			r.seen++
			if checksummed {
				want := binary.LittleEndian.Uint32(row[r.rowBytes:])
				if storage.Checksum(row[:r.rowBytes]) != want {
					if r.guard.SkipCorruptRows() {
						r.corrupt++
						r.guard.NoteCorruptRows(r.corrupt)
						continue
					}
					return nil, fmt.Errorf("storage: checksum mismatch (record %d of %d): %w",
						r.seen-1, r.hdr.Count, storage.ErrCorrupt)
				}
			}
			r.rows = append(r.rows, row[:r.emit])
		}
		if len(r.rows) == 0 {
			continue // every row in the chunk was skipped
		}
		return r.rows, nil
	}
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
