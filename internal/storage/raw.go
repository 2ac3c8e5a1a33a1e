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
