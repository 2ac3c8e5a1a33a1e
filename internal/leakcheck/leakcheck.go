// Package leakcheck is the TestMain of the packages that run queries.
// Their tests run with TMPDIR pointed at a fresh directory, and pass only
// if, once they finish, that directory is empty, the goroutine count is
// back where it started, and no query is left registered in
// obs.DefaultInflight: an engine that leaves a sort run, spill or spool
// behind, a worker running, or a query listed as in flight, fails its
// own package's tests.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"awra/internal/obs"
)

// Main runs the package's tests under the leak check and exits with
// their status.
func Main(m *testing.M) {
	// Fuzzing runs unchecked: the coordinator leaves the signal handler's
	// goroutine running, and stops its workers, which are processes of
	// their own, before they could check or clean up.
	flag.Parse()
	if flag.Lookup("test.fuzz").Value.String() != "" || flag.Lookup("test.fuzzworker").Value.String() == "true" {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "awra-leakcheck-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", dir)
	start := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		code = check(dir, start)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// check reports files left in dir, goroutines beyond start that do not
// exit within a few seconds, and queries still registered in flight.
func check(dir string, start int) int {
	if entries, _ := os.ReadDir(dir); len(entries) > 0 {
		for _, e := range entries {
			fmt.Fprintln(os.Stderr, "leakcheck: the tests left a temporary file:", e.Name())
		}
		return 1
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d after:\n%s\n",
				start, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			return 1
		}
	}
	if qs := obs.DefaultInflight.Snapshot(); len(qs) > 0 {
		for _, q := range qs {
			fmt.Fprintf(os.Stderr, "leakcheck: the tests left query %d (%s) registered in flight\n", q.ID, q.Label)
		}
		return 1
	}
	return 0
}
