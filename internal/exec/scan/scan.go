// Package scan is the batched record pipeline under the engines: it
// reads fact files a batch of whole rows at a time through
// storage.FileSystem, verifies each row's CRC32-C in place, and hands
// engines bounded batches of zero-copy byte-slice row views instead of
// one decoded model.Record at a time. A reader's own buffer holds one
// batch, at most batchRows rows. Per-row work drops to the aggregate
// updates themselves; guard checks (cancellation, budgets) move to
// batch boundaries. The external sort reads through the same fill
// routine, straight into its chunk arena, DefaultBatchBytes at a time.
//
// An Input names where the records live — a file, or an in-memory
// slice — and opens either as the same Record views, so engines keep
// exactly one hot loop. CodeCols turns a batch's dimension codes into
// the generalized code columns both scan engines key their cells on.
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

// batchRows bounds the views any source hands out per batch, and the
// rows a reader's own buffer holds: enough to amortize the engines'
// per-batch bookkeeping and a read call, few enough that the batch's
// rows and views (24 bytes a row) stay cache-resident.
const batchRows = 4096

// DefaultBatchBytes is the most one read moves when the caller does not
// override it: a reader's batch is smaller still on wide rows, and the
// sort fills its chunk arena this much at a time.
const DefaultBatchBytes = 4 << 20

// MinBatchBytes is the smallest usable read size; Open clamps smaller
// requests (a read must at least hold one disk row, and tiny reads
// defeat the batching).
const MinBatchBytes = 64 << 10

// Options configures a Reader.
type Options struct {
	// BatchBytes bounds one read (0 = DefaultBatchBytes; values below
	// MinBatchBytes are clamped up), rounded down to whole rows, and no
	// read goes past the file's last row. NextBatch reads at most
	// batchRows rows of it; the sort's arena fill reads all of it.
	// Production callers leave it 0; tests set it to place chunk
	// boundaries.
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

// Reader reads a record file in chunks of whole rows and yields
// bounded batches of verified zero-copy row views. One fill routine
// reads and verifies every chunk, whether it lands in the reader's own
// one-batch buffer (NextBatch) or in a caller's (the sort's chunk
// arena).
type Reader struct {
	f         storage.File
	hdr       storage.Header
	diskRow   int
	rowBytes  int // payload size
	emit      int // emitted view size (payload, or full disk row)
	chunkRows int // rows one fill reads at most
	// buf holds NextBatch's current batch; it and views are made on the
	// first NextBatch call, so a reader that only fills a caller's arena
	// allocates neither.
	buf     []byte
	views   []Record
	seen    int64
	corrupt int64
	// chunks/bytesRead/capacity tally the batched read pattern in plain
	// fields (one increment per fill, never per row): the fills, the
	// bytes they read and the bytes they had room to read. The scan phase
	// and the sort read them once, at the end of the read (EngineStats).
	chunks    int64
	bytesRead int64
	capacity  int64
	guard     *qguard.Guard
	eof       bool
}

// ReadStats is a point-in-time view of a reader's batched-read tallies:
// the batching behavior (chunk count, bytes moved, average chunk fill)
// of the hot path, observable without any per-row instrumentation.
type ReadStats struct {
	// Chunks is the number of fills so far: one per NextBatch batch, one
	// per sort arena read.
	Chunks int64
	// BytesRead is the total bytes the fills read.
	BytesRead int64
	// Records is the number of rows delivered (corrupt-skipped rows
	// excluded).
	Records int64
	// CorruptRows is the number of checksum-failing rows skipped in
	// degraded mode.
	CorruptRows int64
	// FillPermille is the average fill ratio in permille: bytes read over
	// the bytes the fills had room for (1000 = every fill read full); the
	// final, partial fill of a file drags it below 1000.
	FillPermille int64
}

// ReadStats snapshots the reader's batched-read tallies.
func (r *Reader) ReadStats() ReadStats {
	return ReadStats{
		Chunks:       r.chunks,
		BytesRead:    r.bytesRead,
		Records:      r.seen - r.corrupt,
		CorruptRows:  r.corrupt,
		FillPermille: r.EngineStats().FillPermille(),
	}
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
	db := hdr.DiskRowBytes()
	if db == 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s: rows of no columns (%w)", path, storage.ErrCorrupt)
	}
	// No read is larger than the file (the header's count; at least one
	// disk row).
	chunkRows := bb / db
	if hdr.Count < int64(chunkRows) {
		chunkRows = int(hdr.Count)
	}
	emit := hdr.RowBytes()
	if opts.RawRows {
		emit = db
	}
	return &Reader{
		f:         f,
		hdr:       hdr,
		diskRow:   db,
		rowBytes:  hdr.RowBytes(),
		emit:      emit,
		chunkRows: max(chunkRows, 1),
		guard:     opts.Guard,
	}, nil
}

// Header returns the file's header.
func (r *Reader) Header() storage.Header { return r.hdr }

// NextBatch returns the next verified row views, at most batchRows of
// them: one fill into the reader's own buffer, which holds one batch.
// It returns (nil, nil) once the header's record count has been
// delivered. Rows failing their checksum return storage.ErrCorrupt, or
// are skipped and counted when the guard enables degraded reads.
func (r *Reader) NextBatch() ([]Record, error) {
	if r.buf == nil {
		rows := min(r.chunkRows, batchRows)
		r.buf = make([]byte, rows*r.diskRow)
		r.views = make([]Record, 0, rows)
	}
	n, err := r.fill(r.buf)
	if n == 0 || err != nil {
		return nil, err
	}
	views := r.views[:0]
	for i := 0; i < n; i++ {
		views = append(views, r.buf[i*r.diskRow:i*r.diskRow+r.emit])
	}
	return views, nil
}

// fill reads the next chunk — at most chunkRows rows, and no more than
// dst holds — straight into dst, charging that room to the capacity,
// verifies each row's checksum there, and compacts skipped corrupt rows
// out, so dst[:n*diskRow] holds the n rows it returns, verbatim,
// checksums included. It returns 0 only once the header's record count
// has been consumed; a chunk whose every row was skipped is followed by
// the next.
func (r *Reader) fill(dst []byte) (int, error) {
	db := r.diskRow
	room := min(len(dst)/db, r.chunkRows)
	for {
		if r.seen >= r.hdr.Count {
			return 0, nil
		}
		if err := r.guard.Err(); err != nil {
			return 0, err
		}
		if r.eof {
			return 0, fmt.Errorf("storage: truncated file (record %d of %d): %w (%w)",
				r.seen, r.hdr.Count, io.ErrUnexpectedEOF, storage.ErrCorrupt)
		}
		// Read whole rows, up to the declared count: trailing bytes past
		// it are never read. Short reads are retried; a clean EOF before
		// the last declared row is a torn file (caught above on the next
		// iteration, after the whole rows before it).
		want := int(min(int64(room), r.hdr.Count-r.seen)) * db
		n := 0
		for n < want {
			m, err := r.f.Read(dst[n:want])
			n += m
			if err == io.EOF {
				r.eof = true
				break
			}
			if err != nil {
				return 0, fmt.Errorf("storage: read records: %w", err)
			}
		}
		r.chunks++
		r.bytesRead += int64(n)
		r.capacity += int64(room * db)
		kept, err := r.verify(dst, n/db)
		if kept > 0 || err != nil {
			return kept, err
		}
	}
}

// verify checks the checksums of the rows rows at the head of chunk and
// moves the good ones down over any skipped, returning how many remain.
func (r *Reader) verify(chunk []byte, rows int) (int, error) {
	db, rb := r.diskRow, r.rowBytes
	checksummed := r.hdr.Version >= 2
	kept := 0
	for i := 0; i < rows; i++ {
		row := chunk[i*db : i*db+db]
		r.seen++
		if checksummed && storage.Checksum(row[:rb]) != binary.LittleEndian.Uint32(row[rb:]) {
			if r.guard.SkipCorruptRows() {
				r.corrupt++
				r.guard.NoteCorruptRows(r.corrupt)
				continue
			}
			return 0, fmt.Errorf("storage: checksum mismatch (record %d of %d): %w",
				r.seen-1, r.hdr.Count, storage.ErrCorrupt)
		}
		if kept != i {
			copy(chunk[kept*db:], row)
		}
		kept++
	}
	return kept, nil
}

// more reports whether the header promises rows not yet filled.
func (r *Reader) more() bool { return r.seen < r.hdr.Count }

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
