package faultfs

import (
	"errors"
	"io"
	"path/filepath"
	"testing"
)

func TestFailSyncAndByteAccounting(t *testing.T) {
	fs := New().FailSync()
	path := filepath.Join(t.TempDir(), "f")
	w, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: got %v, want ErrInjected", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.WriteBytes() != 5 {
		t.Fatalf("WriteBytes = %d, want 5", fs.WriteBytes())
	}

	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b := make([]byte, 5)
	if _, err := io.ReadFull(r, b); err != nil {
		t.Fatal(err)
	}
	if fs.ReadBytes() != 5 {
		t.Fatalf("ReadBytes = %d, want 5", fs.ReadBytes())
	}
}

// TestFailReadEvery: every nth Read call fails with an injected fault
// and the reads between them succeed.
func TestFailReadEvery(t *testing.T) {
	fs := New()
	path := filepath.Join(t.TempDir(), "f")
	w, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello, world 123")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	fs.FailReadEvery(3)
	r, err := fs.Open(path)
	// 9 reads of 1 byte with every 3rd faulting touches 6 data bytes.
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b := make([]byte, 1)
	var faults int
	for i := 0; i < 9; i++ {
		if _, err := r.Read(b); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("read %d: got %v, want ErrInjected", i+1, err)
			}
			faults++
		}
	}
	if faults != 3 {
		t.Fatalf("faults = %d over 9 reads with every=3, want 3", faults)
	}
}

func TestFailCreateNth(t *testing.T) {
	fs := New().FailCreate(2)
	dir := t.TempDir()
	f1, err := fs.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	f1.Close()
	if _, err := fs.Create(filepath.Join(dir, "b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd create: got %v, want ErrInjected", err)
	}
	f3, err := fs.Create(filepath.Join(dir, "c"))
	if err != nil {
		t.Fatalf("3rd create must succeed again: %v", err)
	}
	f3.Close()
}
