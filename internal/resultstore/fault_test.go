package resultstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awra/internal/faultfs"
	"awra/internal/storage"
)

// listDir returns the sorted names in dir ("" set if absent).
func listDir(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		out[e.Name()] = true
	}
	return out
}

func TestCorruptManifestIsTyped(t *testing.T) {
	s, tables := computedTables(t)
	dir := filepath.Join(t.TempDir(), "results")
	if err := Save(dir, s, tables); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadManifest on corrupt manifest: err = %v, want ErrCorrupt", err)
	}
	if _, err := Load(dir, s); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load on corrupt manifest: err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedMeasureFileIsTyped(t *testing.T) {
	s, tables := computedTables(t)
	dir := filepath.Join(t.TempDir(), "results")
	if err := Save(dir, s, tables); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the largest measure file mid-record.
	var victim string
	var victimRows int64
	for _, info := range man.Measures {
		if info.Rows > victimRows {
			victim, victimRows = info.File, info.Rows
		}
	}
	if victimRows == 0 {
		t.Fatal("no non-empty measure to truncate")
	}
	path := filepath.Join(dir, victim)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, s); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load on truncated measure: err = %v, want ErrCorrupt", err)
	}
}

func TestSaveShortWriteCleansUp(t *testing.T) {
	s, tables := computedTables(t)
	dir := filepath.Join(t.TempDir(), "results")
	// Let the header and a few records through, then fail: a short write
	// mid-measure must surface the injected error and leave no partial
	// files (and in particular no manifest pointing at them).
	restore := storage.SwapFS(faultfs.New().FailWriteAfter(256))
	err := Save(dir, s, tables)
	restore()
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Save under write fault: err = %v, want ErrInjected", err)
	}
	left := listDir(t, dir)
	for name := range left {
		if strings.HasSuffix(name, ".rec") || name == manifestName || strings.HasSuffix(name, ".tmp") {
			t.Fatalf("failed Save left partial output %q (dir: %v)", name, left)
		}
	}
}

func TestSaveCreateFailureCleansUpEarlierMeasures(t *testing.T) {
	s, tables := computedTables(t)
	if len(tables) < 2 {
		t.Fatal("need at least two measures")
	}
	dir := filepath.Join(t.TempDir(), "results")
	// First measure file writes fine; creating the second fails. The
	// first must not survive.
	restore := storage.SwapFS(faultfs.New().FailCreate(2))
	err := Save(dir, s, tables)
	restore()
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Save under create fault: err = %v, want ErrInjected", err)
	}
	left := listDir(t, dir)
	for name := range left {
		if strings.HasSuffix(name, ".rec") || name == manifestName {
			t.Fatalf("failed Save left partial output %q (dir: %v)", name, left)
		}
	}
	// The directory still works for a clean retry.
	if err := Save(dir, s, tables); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, s); err != nil {
		t.Fatal(err)
	}
}
