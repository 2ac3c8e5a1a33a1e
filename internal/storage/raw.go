package storage

import (
	"fmt"
	"hash/crc32"
	"io"
)

// This file is the raw byte-level seam under the batched record
// pipeline (internal/exec/scan): it exposes the header, row layout,
// and checksum of the record format without forcing callers through
// per-row model.Record decoding. All raw I/O still goes through the
// package's FileSystem, so fault injection (internal/faultfs) covers
// the batched paths exactly like the row-at-a-time ones.

// HeaderBytes is the size of the fixed file header.
const HeaderBytes = headerSize

// RowBytes is the payload size of one record: the dimension codes and
// measure values, without the checksum suffix.
func (h Header) RowBytes() int { return h.recordBytes() }

// DiskRowBytes is the on-disk size of one record, including the
// CRC32-C suffix for version-2 files.
func (h Header) DiskRowBytes() int { return h.diskRecordBytes() }

// Checksum computes the record format's row checksum (CRC32-C,
// hardware-accelerated where available) over a row payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// OpenRaw opens a record file through the active FileSystem, reads and
// validates its header, and returns the file positioned at the first
// record byte. The caller owns the file and must Close it.
func OpenRaw(path string) (File, Header, error) {
	f, err := filesystem.Open(path)
	if err != nil {
		return nil, Header{}, fmt.Errorf("storage: open %s: %w", path, err)
	}
	hb := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hb); err != nil {
		f.Close()
		return nil, Header{}, fmt.Errorf("storage: read header of %s: %w (%w)", path, err, ErrCorrupt)
	}
	hdr, err := unmarshalHeader(hb)
	if err != nil {
		f.Close()
		return nil, Header{}, fmt.Errorf("storage: %s: %w", path, err)
	}
	return f, hdr, nil
}

// RawWriter writes pre-encoded disk rows (payload plus any checksum
// suffix, exactly DiskRowBytes each) to a new record file. The byte
// sort uses it to move rows verbatim — checksums computed when the
// rows were first written travel with them, so a sorted copy needs no
// re-hashing and carries torn-write detection through.
type RawWriter struct {
	f     File
	hdr   Header
	buf   []byte
	count int64
	werr  error
}

// CreateRaw opens a new raw record file with the given shape and
// format version (0 means the current version).
func CreateRaw(path string, hdr Header) (*RawWriter, error) {
	if hdr.Version == 0 {
		hdr.Version = formatVersion
	}
	f, err := filesystem.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	w := &RawWriter{f: f, hdr: hdr, buf: make([]byte, 0, 1<<20)}
	w.buf = append(w.buf, w.hdr.marshal()...)
	return w, nil
}

// Header returns the writer's header (Count reflects rows written so
// far only after Close).
func (w *RawWriter) Header() Header { return w.hdr }

// WriteRow appends one disk row (DiskRowBytes bytes, checksum
// included for v2 shapes). The bytes are copied.
func (w *RawWriter) WriteRow(row []byte) error {
	w.buf = append(w.buf, row...)
	w.count++
	if len(w.buf) >= 1<<20 {
		return w.flush()
	}
	return nil
}

func (w *RawWriter) flush() error {
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

// Count returns the number of rows written so far.
func (w *RawWriter) Count() int64 { return w.count }

// Close flushes buffered rows, rewrites the header with the final row
// count, and closes the file.
func (w *RawWriter) Close() error {
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
