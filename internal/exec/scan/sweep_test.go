package scan

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestSweepTemp: the sweep removes the temporary files of a process
// that has exited, and keeps those of a running one (this test's own)
// and every name TempPath does not give.
func TestSweepTemp(t *testing.T) {
	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	dead, live := child.Process.Pid, os.Getpid()
	dir := t.TempDir()
	stale := []string{
		fmt.Sprintf("awra-bsort-%d-1.tmp", dead),
		fmt.Sprintf("awra-rel-base-%d-12.tmp", dead), // a kind with a dash
	}
	kept := []string{
		fmt.Sprintf("awra-spill-%d-3.tmp", live),
		EngineOptions{TempDir: dir}.TempPath("spill"),
		"awra-results.json",
		fmt.Sprintf("awra-%d-1.tmp", dead),         // no kind
		fmt.Sprintf("awra-spill-%d-x.tmp", dead),   // no sequence number
		fmt.Sprintf("other-spill-%d-1.tmp", dead),  // another program's
		fmt.Sprintf("awra-spill-%d-1.tmp.1", dead), // not a temp file name
	}
	for _, name := range append(append([]string(nil), stale...), kept...) {
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("awra-dir-%d-1.tmp", dead)), 0o755); err != nil {
		t.Fatal(err)
	}
	removed, err := SweepTemp(dir)
	if err != nil || removed != len(stale) {
		t.Fatalf("SweepTemp = (%d, %v), want (%d, nil)", removed, err, len(stale))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{fmt.Sprintf("awra-dir-%d-1.tmp", dead)}
	for _, name := range kept {
		want = append(want, filepath.Base(name))
	}
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("left %v, want %v", got, want)
	}
}
