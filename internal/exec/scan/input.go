package scan

import (
	"encoding/binary"
	"fmt"
	"math"

	"awra/internal/model"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// Input is what every engine, the sort and the stats sampler read: a
// record file, or an in-memory record slice whose shape was checked
// once, when the Input was made. Open streams either as the same
// batched Record views, so each consumer has one read loop wherever
// the records live.
type Input struct {
	path string
	recs []model.Record
	mem  bool
	hdr  storage.Header // an in-memory input's shape: a checksum-free file's
}

// FileInput reads the record file at path.
func FileInput(path string) Input { return Input{path: path} }

// RecordsInput reads recs, every one of which must carry numDims
// dimension codes and numMeasures measure values. The first record that
// does not is reported as a *ShapeError; no engine ever sees it.
func RecordsInput(recs []model.Record, numDims, numMeasures int) (Input, error) {
	for i := range recs {
		if len(recs[i].Dims) != numDims || len(recs[i].Ms) != numMeasures {
			return Input{}, &ShapeError{Index: i, Dims: len(recs[i].Dims), Measures: len(recs[i].Ms),
				WantDims: numDims, WantMeasures: numMeasures}
		}
	}
	hdr := storage.Header{NumDims: numDims, NumMeasures: numMeasures, Count: int64(len(recs)), Version: 1}
	return Input{recs: recs, mem: true, hdr: hdr}, nil
}

// ShapeError reports an in-memory record whose shape is not the
// input's. Index names the record.
type ShapeError struct {
	Index                  int
	Dims, Measures         int
	WantDims, WantMeasures int
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("scan: record %d has %d dimensions and %d measures, want %d and %d",
		e.Index, e.Dims, e.Measures, e.WantDims, e.WantMeasures)
}

// Open streams the input under opts: a file through the chunked Reader,
// in-memory records encoded a batch at a time into the rows of a
// checksum-free (version 1) file. The caller must Close the source.
func (in Input) Open(opts Options) (BatchSource, error) {
	return in.open(opts)
}

// rowSource is an opened input as the sort reads it: rows written
// straight into the sort's chunk arena rather than handed out as views.
type rowSource interface {
	BatchSource
	// fill writes the input's next rows — one read chunk's worth at
	// most, and no more than dst holds — into dst, a whole number of
	// disk rows, and returns how many. It returns 0 only at the end of
	// the input.
	fill(dst []byte) (int, error)
	// more reports whether the input holds rows not yet filled.
	more() bool
}

func (in Input) open(opts Options) (rowSource, error) {
	if in.mem {
		return &batcher{recs: in.recs, hdr: in.hdr, guard: opts.Guard}, nil
	}
	r, err := Open(in.path, opts)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// batcherRecords is how many records a batcher encodes per batch —
// small enough to stay cache-resident, large enough that the engines'
// per-batch bookkeeping amortizes like it does for file chunks.
const batcherRecords = 512

// batcher streams in-memory records as row views: each batch is encoded
// into the fixed-width row layout, one copy per record, which the
// decode-free scan more than wins back.
type batcher struct {
	recs  []model.Record
	hdr   storage.Header
	guard *qguard.Guard
	buf   []byte
	rows  []Record
	pos   int
}

// NextBatch encodes the next batch of records. Views are valid until
// the next call.
func (b *batcher) NextBatch() ([]Record, error) {
	rb := b.hdr.RowBytes()
	if b.buf == nil {
		n := min(len(b.recs), batcherRecords)
		b.buf, b.rows = make([]byte, n*rb), make([]Record, 0, n)
	}
	n, err := b.fill(b.buf)
	if n == 0 || err != nil {
		return nil, err
	}
	b.rows = b.rows[:0]
	for i := 0; i < n; i++ {
		b.rows = append(b.rows, b.buf[i*rb:i*rb+rb])
	}
	return b.rows, nil
}

// fill encodes up to a batch of records into dst.
func (b *batcher) fill(dst []byte) (int, error) {
	if !b.more() {
		return 0, nil
	}
	if err := b.guard.Err(); err != nil {
		return 0, err
	}
	rb := b.hdr.RowBytes()
	n := min(len(dst)/rb, batcherRecords, len(b.recs)-b.pos)
	for i := 0; i < n; i++ {
		EncodeRow(dst[i*rb:i*rb+rb], &b.recs[b.pos+i])
	}
	b.pos += n
	return n, nil
}

func (b *batcher) more() bool { return b.pos < len(b.recs) }

// EncodeRow writes rec into row, which must be exactly its size, in the
// payload layout of a record file's row, and returns the row's view.
func EncodeRow(row []byte, rec *model.Record) Record {
	for d, v := range rec.Dims {
		binary.LittleEndian.PutUint64(row[8*d:], uint64(v))
	}
	mo := 8 * len(rec.Dims)
	for m, v := range rec.Ms {
		binary.LittleEndian.PutUint64(row[mo+8*m:], math.Float64bits(v))
	}
	return Record(row)
}

// Header returns the records' shape and count.
func (b *batcher) Header() storage.Header { return b.hdr }

// Close releases nothing: the records belong to the caller.
func (b *batcher) Close() error { return nil }
