//go:build unix

package aw_test

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"awra/aw"
)

// TestExplainForWithoutHistoryReadsNoFile: only measured statistics read
// the collection's identity, so EXPLAIN with no History attached plans
// without opening the file. A FIFO with no writer blocks any open of it.
func TestExplainForWithoutHistoryReadsNoFile(t *testing.T) {
	c, err := profileWorkflow(t, attackSchema(t)).Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "facts.rec")
	if err := syscall.Mkfifo(p, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := aw.ExplainFor(c, aw.FromFile(p), aw.QueryOptions{TempDir: t.TempDir()})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		return
	case <-time.After(time.Second):
		t.Error("ExplainFor without a History blocked opening its input")
	}
	// Give the stuck open a writer until it returns, so no goroutine
	// outlives the test.
	for {
		if w, err := os.OpenFile(p, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			w.Close()
		}
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}
