package scan

import (
	"path/filepath"
	"testing"

	"awra/internal/obs"
)

// TestScanPhaseAddsSourceStats: a scan phase adds its source's own
// tallies to the run's stats — a file reader's chunks and bytes, and a
// spilled sort part's heap comparisons — and the sort keeps its input
// read's tallies in Sorted.EngineStats.
func TestScanPhaseAddsSourceStats(t *testing.T) {
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")
	const rows = 3000
	writeFile(t, fact, randRecords(rows, 2, 1, 5), 2, 1)
	eo := EngineOptions{TempDir: dir, ReadBatchBytes: MinBatchBytes, ChunkRecords: 500}.WithDefaults()
	scanAll := func(src BatchSource) obs.EngineStats {
		t.Helper()
		defer src.Close()
		var st obs.EngineStats
		if err := eo.ScanPhase(src, 256, nil, func([]Record) error { return nil }, &st); err != nil {
			t.Fatal(err)
		}
		if st.Records != rows {
			t.Fatalf("scanned %d rows, want %d", st.Records, rows)
		}
		return st
	}

	src, err := eo.Open(FileInput(fact))
	if err != nil {
		t.Fatal(err)
	}
	diskRow := int64(src.Header().DiskRowBytes())
	chunk := MinBatchBytes / diskRow * diskRow
	wantChunks := (rows*diskRow + chunk - 1) / chunk
	read := scanAll(src)
	if read.ScanChunks != wantChunks || read.ScanBytes != rows*diskRow || read.ScanCapacity != wantChunks*chunk {
		t.Errorf("file scan: %d chunks, %d bytes, capacity %d; want %d, %d, %d",
			read.ScanChunks, read.ScanBytes, read.ScanCapacity, wantChunks, rows*diskRow, wantChunks*chunk)
	}
	if fill := read.FillPermille(); fill <= 0 || fill >= 1000 {
		t.Errorf("fill %d permille, want a partial last chunk", fill)
	}
	if read.HeapComparisons != 0 {
		t.Errorf("a file scan made %d heap comparisons", read.HeapComparisons)
	}

	// Sorting by every column in chunks of 500 rows spills six runs. The
	// sort reads the file once, each read stopping at its chunk's 500
	// rows, and the merge's comparisons land in the scan phase that
	// drains the part.
	sorted, err := SortByKey(FileInput(fact), nil, nil, nil, 1, eo)
	if err != nil {
		t.Fatal(err)
	}
	defer sorted.Close()
	sortSt := sorted.EngineStats()
	if sortSt.SortRuns != 6 || sortSt.ScanChunks != 6 || sortSt.ScanBytes != read.ScanBytes {
		t.Errorf("sort: %d runs, %d chunks, %d bytes; want 6 runs, 6 chunks and the file's %d bytes",
			sortSt.SortRuns, sortSt.ScanChunks, sortSt.ScanBytes, read.ScanBytes)
	}
	part, err := sorted.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	merged := scanAll(part)
	if merged.HeapComparisons == 0 || merged.ScanChunks != 0 {
		t.Errorf("merge scan: %d heap comparisons, %d chunks; want some comparisons and no chunks of its own",
			merged.HeapComparisons, merged.ScanChunks)
	}
}
