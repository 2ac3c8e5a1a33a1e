// Package faultfs is a fault-injecting storage.FileSystem for
// robustness tests: it wraps the real filesystem and fails operations
// on demand — the Nth file creation, reads after a global byte budget,
// writes after a global byte budget, fsync, or short (1-byte) reads.
// Install it with storage.SwapFS and drive any engine over it to prove
// error paths return typed errors and clean up their temp files.
//
// Byte budgets are global across all files opened through the FS, so a
// test can say "fail the 3rd megabyte of I/O wherever it lands" and hit
// sorts, spills, and scans alike. All counters are atomic; the FS is
// safe for the concurrent readers/writers the parallel engines spawn.
package faultfs

import (
	"errors"
	"fmt"
	"sync/atomic"

	"awra/internal/storage"
)

// ErrInjected is the root of every injected failure.
var ErrInjected = errors.New("faultfs: injected fault")

// FS wraps a base FileSystem with injectable faults. The zero value
// with Base nil wraps the OS filesystem and injects nothing until a
// Fail* method arms it.
type FS struct {
	// Base is the wrapped filesystem; nil means storage.OSFS.
	Base storage.FileSystem

	creates        atomic.Int64
	failCreateAt   atomic.Int64 // fail the Nth create (1-based), 0 = off
	readBytes      atomic.Int64
	failReadAfter  atomic.Int64 // total read bytes before failing, -1 = off
	writeBytes     atomic.Int64
	failWriteAfter atomic.Int64 // total written bytes before failing, -1 = off
	failSync       atomic.Bool
	shortReads     atomic.Bool
	failReadEvery  atomic.Int64 // fail every Nth Read call, 0 = off
	reads          atomic.Int64
}

// New returns an FS over the OS filesystem with no faults armed.
func New() *FS {
	f := &FS{}
	f.failReadAfter.Store(-1)
	f.failWriteAfter.Store(-1)
	return f
}

// FailCreate arms a failure on the nth (1-based) Create call.
func (f *FS) FailCreate(n int64) *FS { f.failCreateAt.Store(n); return f }

// FailReadAfter arms a read failure once n bytes have been read in
// total across all files.
func (f *FS) FailReadAfter(n int64) *FS { f.failReadAfter.Store(n); return f }

// FailWriteAfter arms a write failure once n bytes have been written
// in total across all files.
func (f *FS) FailWriteAfter(n int64) *FS { f.failWriteAfter.Store(n); return f }

// FailSync makes every Sync call fail.
func (f *FS) FailSync() *FS { f.failSync.Store(true); return f }

// ShortReads makes every Read return at most one byte, exercising
// io.ReadFull resumption in callers.
func (f *FS) ShortReads() *FS { f.shortReads.Store(true); return f }

// FailReadEvery makes every nth Read call (across all files) fail
// (0 disarms): faults that land mid-query across many concurrent
// readers, for chaos tests.
func (f *FS) FailReadEvery(n int64) *FS { f.failReadEvery.Store(n); return f }

// Creates reports how many Create calls the FS has seen, failed ones
// included.
func (f *FS) Creates() int64 { return f.creates.Load() }

// ReadBytes reports total bytes read through the FS.
func (f *FS) ReadBytes() int64 { return f.readBytes.Load() }

// WriteBytes reports total bytes written through the FS.
func (f *FS) WriteBytes() int64 { return f.writeBytes.Load() }

func (f *FS) base() storage.FileSystem {
	if f.Base != nil {
		return f.Base
	}
	return storage.OSFS{}
}

// Create implements storage.FileSystem.
func (f *FS) Create(name string) (storage.File, error) {
	n := f.creates.Add(1)
	if at := f.failCreateAt.Load(); at > 0 && n == at {
		return nil, fmt.Errorf("%w: create %s (call %d)", ErrInjected, name, n)
	}
	file, err := f.base().Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: name}, nil
}

// Open implements storage.FileSystem.
func (f *FS) Open(name string) (storage.File, error) {
	file, err := f.base().Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: name}, nil
}

type faultFile struct {
	fs   *FS
	f    storage.File
	name string
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if after := ff.fs.failReadAfter.Load(); after >= 0 && ff.fs.readBytes.Load() >= after {
		return 0, fmt.Errorf("%w: read %s after %d bytes", ErrInjected, ff.name, ff.fs.readBytes.Load())
	}
	call := ff.fs.reads.Add(1)
	if every := ff.fs.failReadEvery.Load(); every > 0 && call%every == 0 {
		return 0, fmt.Errorf("%w: read %s (call %d)", ErrInjected, ff.name, call)
	}
	if ff.fs.shortReads.Load() && len(p) > 1 {
		p = p[:1]
	}
	n, err := ff.f.Read(p)
	ff.fs.readBytes.Add(int64(n))
	return n, err
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if after := ff.fs.failWriteAfter.Load(); after >= 0 && ff.fs.writeBytes.Load() >= after {
		return 0, fmt.Errorf("%w: write %s after %d bytes", ErrInjected, ff.name, ff.fs.writeBytes.Load())
	}
	n, err := ff.f.Write(p)
	ff.fs.writeBytes.Add(int64(n))
	return n, err
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if after := ff.fs.failWriteAfter.Load(); after >= 0 && ff.fs.writeBytes.Load() >= after {
		return 0, fmt.Errorf("%w: write-at %s after %d bytes", ErrInjected, ff.name, ff.fs.writeBytes.Load())
	}
	n, err := ff.f.WriteAt(p, off)
	ff.fs.writeBytes.Add(int64(n))
	return n, err
}

func (ff *faultFile) Sync() error {
	if ff.fs.failSync.Load() {
		return fmt.Errorf("%w: fsync %s", ErrInjected, ff.name)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
