package storage

// Test-only exports so external robustness tests (package storage_test,
// which must be external because faultfs imports this package) can reach
// format internals.

const (
	HeaderSizeForTest    = headerSize
	FormatVersionForTest = formatVersion
)

var (
	UnmarshalHeaderForTest = unmarshalHeader
)

func (h Header) DiskRecordBytesForTest() int { return h.diskRecordBytes() }
