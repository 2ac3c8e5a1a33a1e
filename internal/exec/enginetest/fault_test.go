package enginetest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/faultfs"
	"awra/internal/obs"
	"awra/internal/storage"
)

// faultEngine pairs an engine name with the options that drive it
// through the public API. The obsWorkflow fixture is shard-valid, so
// every engine applies. The "partscan" row is shardscan with a
// caller-chosen partition unit (dimension 0 at base, the leading part
// of the explicit sort key); it keeps the name of the partitioned
// engine this use case once needed.
type faultEngine struct {
	name string
	opts aw.QueryOptions
}

func faultEngines() []faultEngine {
	return []faultEngine{
		{"sortscan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan}}},
		{"shardscan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineShardScan, Parallelism: 3}}},
		{"singlescan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan}}},
		{"multipass", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineMultiPass}}},
		{"partscan", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineShardScan, Parallelism: 2},
			SortKey: aw.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}}},
		{"relational", aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineRelational}}},
	}
}

// assertTempDirClean fails if the engine left any temp artifacts (sort
// runs, spills, baseline spools) behind.
func assertTempDirClean(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover temp file: %s", e.Name())
	}
}

// corruptFactRecord flips a byte in record i of a fact file written by
// writeFact (2 dims, 1 measure, format v2: 28-byte records after a
// 32-byte header).
func corruptFactRecord(t *testing.T, path string, i int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[32+i*28] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMatrix drives every engine through the public API under
// three injected faults — cancellation before the scan, an I/O error
// mid-read, and a corrupt row (strict and degraded) — asserting typed
// errors, metric counts, and no leaked temp files.
func TestFaultMatrix(t *testing.T) {
	g := NewGen(71, 2)
	c := obsWorkflow(t, g)
	recs := g.Records(2000)
	fact := writeFact(t, g, recs)

	for _, eng := range faultEngines() {
		t.Run(eng.name+"/canceled", func(t *testing.T) {
			tempDir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rec := aw.NewRecorder()
			o := eng.opts
			o.TempDir = tempDir
			o.Recorder = rec
			_, err := aw.RunCompiled(ctx, c, aw.FromFile(fact), o)
			if !errors.Is(err, aw.ErrCanceled) {
				t.Fatalf("got %v, want ErrCanceled", err)
			}
			if n := rec.Counter(obs.MQueriesCanceled).Value(); n != 1 {
				t.Errorf("queries_canceled = %d, want 1", n)
			}
			assertTempDirClean(t, tempDir)
		})

		t.Run(eng.name+"/read-error", func(t *testing.T) {
			tempDir := t.TempDir()
			// ShortReads stops bufio from satisfying a small file in one
			// underlying read, so the byte budget trips mid-scan on every
			// engine.
			restore := storage.SwapFS(faultfs.New().FailReadAfter(4096).ShortReads())
			o := eng.opts
			o.TempDir = tempDir
			_, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), o)
			restore()
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("got %v, want ErrInjected", err)
			}
			assertTempDirClean(t, tempDir)
		})

		t.Run(eng.name+"/corrupt-strict", func(t *testing.T) {
			tempDir := t.TempDir()
			badFact := filepath.Join(t.TempDir(), "bad.rec")
			b, err := os.ReadFile(fact)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(badFact, b, 0o644); err != nil {
				t.Fatal(err)
			}
			corruptFactRecord(t, badFact, 1000)
			o := eng.opts
			o.TempDir = tempDir
			_, err = aw.RunCompiled(context.Background(), c, aw.FromFile(badFact), o)
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			assertTempDirClean(t, tempDir)
		})

		t.Run(eng.name+"/corrupt-skip", func(t *testing.T) {
			tempDir := t.TempDir()
			badFact := filepath.Join(t.TempDir(), "bad.rec")
			b, err := os.ReadFile(fact)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(badFact, b, 0o644); err != nil {
				t.Fatal(err)
			}
			corruptFactRecord(t, badFact, 500)
			corruptFactRecord(t, badFact, 1500)
			rec := aw.NewRecorder()
			o := eng.opts
			o.TempDir = tempDir
			o.Recorder = rec
			o.SkipCorruptRows = true
			res, err := aw.RunCompiled(context.Background(), c, aw.FromFile(badFact), o)
			if err != nil {
				t.Fatalf("degraded run failed: %v", err)
			}
			if len(res) == 0 {
				t.Fatal("degraded run produced no tables")
			}
			// Multipass reads the fact once per pass and the relational
			// baseline once per fact scan: a row every read skips is
			// still one row.
			if n := rec.Counter(obs.MRowsCorruptSkipped).Value(); n != 2 {
				t.Errorf("rows_corrupt_skipped = %d, want 2", n)
			}
			assertTempDirClean(t, tempDir)
		})
	}
}

// TestFaultCancelLatencyLargeScan is the tentpole's latency contract:
// on a million-row fact file, cancellation mid-query must surface
// ErrCanceled within 250ms on every engine, leave no temp files, and
// increment queries_canceled.
func TestFaultCancelLatencyLargeScan(t *testing.T) {
	if testing.Short() {
		t.Skip("large fact file")
	}
	g := NewGen(72, 2)
	c := obsWorkflow(t, g)
	recs := g.Records(1_000_000)
	fact := writeFact(t, g, recs)

	for _, eng := range faultEngines() {
		t.Run(eng.name, func(t *testing.T) {
			tempDir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var canceledAt time.Time
			// 10ms, not more: singlescan finishes this file in ~60ms, and
			// the cancel must land while every engine is still mid-query.
			timer := time.AfterFunc(10*time.Millisecond, func() {
				canceledAt = time.Now()
				cancel()
			})
			defer timer.Stop()

			rec := aw.NewRecorder()
			o := eng.opts
			o.TempDir = tempDir
			o.Recorder = rec
			_, err := aw.RunCompiled(ctx, c, aw.FromFile(fact), o)
			returned := time.Now()
			if !errors.Is(err, aw.ErrCanceled) {
				t.Fatalf("got %v, want ErrCanceled (query may have finished before the cancel fired)", err)
			}
			// canceledAt was written before cancel(); observing the
			// canceled error synchronizes with it.
			if lat := returned.Sub(canceledAt); lat > 250*time.Millisecond {
				t.Errorf("cancellation latency %v, want <= 250ms", lat)
			}
			if n := rec.Counter(obs.MQueriesCanceled).Value(); n != 1 {
				t.Errorf("queries_canceled = %d, want 1", n)
			}
			assertTempDirClean(t, tempDir)
		})
	}
}
