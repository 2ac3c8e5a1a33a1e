package enginetest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/exec/sortscan"
	"awra/internal/faultfs"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// shardCounts is the shard-parallelism matrix: the serial degenerate
// case, an even split, a power-of-two split, and a prime count that
// cannot divide the unit space evenly.
var shardCounts = []int{1, 2, 4, 7}

// runSerialVsSharded evaluates the workflow serially and with every
// shard count — each both with the whole input in one sort chunk and
// with chunks small enough that every shard merges at least three
// spilled runs — requiring tables bit-identical (eps 0) to the serial
// run's and to the algebraic reference evaluator's: every aggregate in
// these fixtures is integer-valued, so neither sharding nor spilling may
// perturb a single bit.
func runSerialVsSharded(t *testing.T, c *core.Compiled, fact string, key model.SortKey) {
	t.Helper()
	dir := t.TempDir()
	want, err := sortscan.Run(c, scan.FileInput(fact), sortscan.Options{EngineOptions: scan.EngineOptions{TempDir: dir}, SortKey: key})
	if err != nil {
		t.Fatalf("serial sortscan: %v", err)
	}
	recs, _, err := storage.ReadAll(fact)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTables(runAlgebra(t, c, recs), want.Tables, 0); d != "" {
		t.Fatalf("serial sortscan vs core.Eval: %s", d)
	}
	for _, shards := range shardCounts {
		for _, chunk := range []int{0, len(recs) / 16} {
			name := fmt.Sprintf("shards=%d chunk=%d", shards, chunk)
			rec := obs.New()
			got, err := sortscan.RunSharded(c, scan.FileInput(fact), shardOpts(key, shards, scan.EngineOptions{
				TempDir: dir, ChunkRecords: chunk, Recorder: rec,
			}))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := diffTables(want.Tables, got.Tables, 0); d != "" {
				t.Fatalf("%s: sharded vs serial: %s", name, d)
			}
			if got.Stats.Records != want.Stats.Records {
				t.Errorf("%s: records %d, want %d", name, got.Stats.Records, want.Stats.Records)
			}
			assertTempDirClean(t, dir)
			snap := rec.Snapshot()
			if chunk > 0 {
				// Every worker that owns rows merged a run per chunk.
				for _, runs := range sortRuns(snap.Spans, nil) {
					if runs < 3 {
						t.Errorf("%s: a sort merged %d runs, want >= 3 (all: %v)", name, runs, sortRuns(snap.Spans, nil))
					}
				}
				if got.Stats.SpillBytes == 0 {
					t.Errorf("%s: nothing spilled", name)
				}
			} else if n := got.Stats.SpillBytes; n != 0 {
				t.Errorf("%s: an input of one chunk spilled %d bytes", name, n)
			}
			if shards == 1 {
				continue // plain Run: no shard metrics
			}
			if n := got.Stats.ShardsPlanned; n != int64(shards) {
				t.Errorf("%s: shards_planned = %d", name, n)
			}
			if n := got.Stats.FactScans; n != 1 {
				t.Errorf("%s: fact_scans = %d, want the one read", name, n)
			}
			if skew := got.Stats.ShardSkew; skew < 1000 {
				t.Errorf("%s: shard_skew_ratio = %d, want >= 1000 permille", name, skew)
			}
		}
	}
}

// sortRuns collects the "runs" attribute of every sort span whose
// worker had rows to sort.
func sortRuns(spans []*obs.SpanSnapshot, out []int) []int {
	for _, s := range spans {
		if s.Name == obs.SpanSort {
			if n, _ := strconv.Atoi(s.Attrs["runs"]); n > 0 {
				out = append(out, n)
			}
		}
		out = sortRuns(s.Children, out)
	}
	return out
}

// synthCube writes a synthetic-cube fact file into a fresh temp dir.
func synthCube(t *testing.T, n int64, seed int64) (string, *model.Schema) {
	t.Helper()
	fact := filepath.Join(t.TempDir(), "synth.rec")
	s, err := gen.Synth(fact, n, gen.SynthConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return fact, s
}

// TestShardedMatchesSerialSynthCube: mixed workflows (basic, rollup,
// sliding, combine — all nesting inside shard units, plus one
// non-nesting basic exercising the cross-shard state-merge path) over
// the uniform synthetic cube, under fine, coarse and caller-chosen
// shard-prefix levels. Composite granularities stay at or below the shard level on
// the shard dimension; sliding windows stay off it.
func TestShardedMatchesSerialSynthCube(t *testing.T) {
	fact, s := synthCube(t, 20000, 2006)
	all := model.LevelALL
	cases := []struct {
		name string
		key  model.SortKey
		wf   *core.Workflow
	}{
		{
			// Shard units = base codes of A1: every composite gran keeps
			// A1 at level 0; "sum1" (A1 at level 1) spans units and must
			// take the state-merge path.
			name: "fine",
			key:  model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}},
			wf: core.NewWorkflow(s).
				Basic("cnt", model.Gran{0, 1, all, all}, agg.Count, -1).
				Basic("sum1", model.Gran{1, all, all, all}, agg.Sum, 0).
				Rollup("roll", model.Gran{0, all, all, all}, "cnt", agg.Sum).
				Sliding("trend", "cnt", agg.Sum, []core.Window{{Dim: 1, Lo: -1, Hi: 1}}).
				Combine("ratio", []string{"cnt", "trend"}, core.Ratio(0, 1)),
		},
		{
			// Coarse units (level 2 of A1): few units, forcing LPT
			// balancing; the level-2 rollup now nests.
			name: "coarse",
			key:  model.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 0}},
			wf: core.NewWorkflow(s).
				Basic("cnt", model.Gran{0, 1, all, all}, agg.Count, -1).
				Basic("top", model.Gran{all, 0, all, all}, agg.Sum, 0).
				Rollup("per2", model.Gran{2, all, all, all}, "cnt", agg.Sum).
				Sliding("trend", "cnt", agg.Sum, []core.Window{{Dim: 1, Lo: -1, Hi: 1}}).
				Combine("ratio", []string{"cnt", "trend"}, core.Ratio(0, 1)),
		},
		{
			// A partition unit chosen by the caller — A1 at level 1 — as the
			// key's leading part: every measure nests inside it, the window
			// moves along A2 only.
			name: "partition-unit",
			key:  model.SortKey{{Dim: 0, Lvl: 1}, {Dim: 1, Lvl: 1}},
			wf: core.NewWorkflow(s).
				Basic("cnt", model.Gran{0, 1, all, all}, agg.Count, -1).
				Basic("sum", model.Gran{1, all, all, all}, agg.Sum, 0).
				Rollup("per1", model.Gran{1, all, all, all}, "cnt", agg.Sum).
				Combine("ratio", []string{"per1", "sum"}, core.Ratio(0, 1)).
				Sliding("winB", "cnt", agg.Avg, []core.Window{{Dim: 1, Lo: -1, Hi: 1}}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.wf.Compile()
			if err != nil {
				t.Fatal(err)
			}
			runSerialVsSharded(t, c, fact, tc.key)
		})
	}
}

// TestShardedMatchesSerialCountDistinct: a COUNT DISTINCT basic whose
// granularity is ALL on the shard dimension cannot nest inside shard
// units, so its per-shard distinct-value states must flow through the
// aggregator Merge (set union) path — and still be exact.
func TestShardedMatchesSerialCountDistinct(t *testing.T) {
	fact, s := synthCube(t, 15000, 99)
	all := model.LevelALL
	w := core.NewWorkflow(s).
		Basic("cnt", model.Gran{0, 1, all, all}, agg.Count, -1).
		Basic("ndv", model.Gran{all, 0, all, all}, agg.CountDistinct, 0).
		Basic("peak", model.Gran{all, 1, all, all}, agg.Max, 0)
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}
	runSerialVsSharded(t, c, fact, key)
}

// TestShardedMatchesSerialAttackLog: the multi-recon shape of the
// paper's Section 7.2 on the attack-log generator, sharded by t:Day.
// Five days across up to seven shards also exercises empty shards.
func TestShardedMatchesSerialAttackLog(t *testing.T) {
	fact := filepath.Join(t.TempDir(), "net.rec")
	s, _, err := gen.NetLog(fact, 30000, gen.NetConfig{Days: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hour, err := s.Dim(0).LevelByName("Hour")
	if err != nil {
		t.Fatal(err)
	}
	day, err := s.Dim(0).LevelByName("Day")
	if err != nil {
		t.Fatal(err)
	}
	all := model.LevelALL
	w := core.NewWorkflow(s)
	w.Basic("traffic", model.Gran{hour, all, 1, all}, agg.Count, -1)
	w.Rollup("busy", model.Gran{hour, all, all, all}, "traffic", agg.Count, core.Where(core.MWhere(0, core.Gt, 2)))
	w.Basic("srcActivity", model.Gran{day, 0, 1, all}, agg.Count, -1)
	w.Rollup("fanIn", model.Gran{day, all, 1, all}, "srcActivity", agg.Count)
	w.Rollup("sweeps", model.Gran{day, all, all, all}, "fanIn", agg.Count, core.Where(core.MWhere(0, core.Ge, 10)))
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	key := model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}, {Dim: 1, Lvl: 0}}
	runSerialVsSharded(t, c, fact, key)
}

// TestShardedRejectsUnshardable: a sliding window on the shard
// dimension means sibling regions cross shard-unit boundaries; the
// engine must refuse rather than silently compute wrong answers.
func TestShardedRejectsUnshardable(t *testing.T) {
	fact, s := synthCube(t, 2000, 5)
	all := model.LevelALL
	w := core.NewWorkflow(s).
		Basic("cnt", model.Gran{0, all, all, all}, agg.Count, -1).
		Sliding("trend", "cnt", agg.Sum, []core.Window{{Dim: 0, Lo: -1, Hi: 1}})
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sortscan.RunSharded(c, scan.FileInput(fact), shardOpts(model.SortKey{{Dim: 0, Lvl: 1}}, 2,
		scan.EngineOptions{TempDir: filepath.Dir(fact)}))
	if err == nil {
		t.Fatal("unshardable workflow accepted")
	}
}

// TestShardedCancellationMidShard: a pre-canceled context must abort
// before any shard work, and a budget trip inside one shard worker
// must surface as the typed error with no temp files left behind.
func TestShardedCancellationMidShard(t *testing.T) {
	fact, s := synthCube(t, 10000, 41)
	all := model.LevelALL
	w := core.NewWorkflow(s).Basic("cnt", model.Gran{0, 1, all, all}, agg.Count, -1)
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}

	t.Run("pre-canceled", func(t *testing.T) {
		tempDir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := sortscan.RunSharded(c, scan.FileInput(fact), shardOpts(key, 4, scan.EngineOptions{
			TempDir: tempDir, Guard: qguard.New(ctx, qguard.Limits{}),
		}))
		if !errors.Is(err, qguard.ErrCanceled) {
			t.Fatalf("got %v, want ErrCanceled", err)
		}
		assertTempDirClean(t, tempDir)
	})

	t.Run("live-cell-budget-in-shard", func(t *testing.T) {
		tempDir := t.TempDir()
		// 10 live cells across 4 shards: each worker gets a 3-cell slice
		// and must trip while scanning its shard.
		_, err := sortscan.RunSharded(c, scan.FileInput(fact), shardOpts(key, 4, scan.EngineOptions{
			TempDir: tempDir, Guard: qguard.New(context.Background(), qguard.Limits{MaxLiveCells: 10}),
		}))
		be, ok := qguard.AsBudget(err)
		if !ok || be.Resource != qguard.ResLiveCells {
			t.Fatalf("got %v, want live-cells BudgetError", err)
		}
		assertTempDirClean(t, tempDir)
	})

	t.Run("mid-flight-cancel", func(t *testing.T) {
		if testing.Short() {
			t.Skip("timing-dependent")
		}
		bigFact := filepath.Join(t.TempDir(), "big.rec")
		if _, err := gen.Synth(bigFact, 300000, gen.SynthConfig{Seed: 43}); err != nil {
			t.Fatal(err)
		}
		tempDir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		g := qguard.New(ctx, qguard.Limits{})
		before := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() {
			// Six sort chunks, so run files exist from a sixth of the way
			// through the read.
			_, err := sortscan.RunSharded(c, scan.FileInput(bigFact), shardOpts(key, 4, scan.EngineOptions{
				TempDir: tempDir, ChunkRecords: 50000, Guard: g,
			}))
			done <- err
		}()
		// Cancel as soon as run files start appearing, so the sort is
		// mid-read, writing its runs, when the signal lands.
		for i := 0; ; i++ {
			entries, _ := os.ReadDir(tempDir)
			if len(entries) > 0 || i > 100000 {
				break
			}
		}
		cancel()
		if err := <-done; !errors.Is(err, qguard.ErrCanceled) {
			t.Fatalf("got %v, want ErrCanceled", err)
		}
		assertTempDirClean(t, tempDir)
		assertNoGoroutinesSince(t, before)
	})
}

// assertNoGoroutinesSince fails if more goroutines are running than
// before the call under test; it allows a moment for ones already past
// their last statement to be reaped.
func assertNoGoroutinesSince(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines running, %d before the run", n, before)
	}
}

// TestShardedTempFiles: a sharded run whose input fits one sort chunk
// creates no file at all — the rows go from the one read to the workers
// through memory — and one that spills, whether it completes, fails on
// a create or a write, or trips its spill budget, leaves no file behind
// and no goroutine running.
func TestShardedTempFiles(t *testing.T) {
	fact, s := synthCube(t, 20000, 47)
	all := model.LevelALL
	c, err := core.NewWorkflow(s).
		Basic("cnt", model.Gran{0, 1, all, all}, agg.Count, -1).
		Basic("sum1", model.Gran{1, all, all, all}, agg.Sum, 0).
		Rollup("roll", model.Gran{0, all, all, all}, "cnt", agg.Sum).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	key := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}
	run := func(fs *faultfs.FS, chunk int, g *qguard.Guard) (string, error) {
		tempDir := t.TempDir()
		before := runtime.NumGoroutine()
		restore := storage.SwapFS(fs)
		_, err := sortscan.RunSharded(c, scan.FileInput(fact), shardOpts(key, 3, scan.EngineOptions{
			TempDir: tempDir, ChunkRecords: chunk, Guard: g,
		}))
		restore()
		assertTempDirClean(t, tempDir)
		assertNoGoroutinesSince(t, before)
		return tempDir, err
	}

	fs := faultfs.New()
	if _, err := run(fs, 0, nil); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	if fs.Creates() != 0 || fs.WriteBytes() != 0 {
		t.Errorf("in-memory run created %d files and wrote %d bytes, want none", fs.Creates(), fs.WriteBytes())
	}

	fs = faultfs.New()
	if _, err := run(fs, 4000, nil); err != nil {
		t.Fatalf("spilled run: %v", err)
	}
	if fs.Creates() < 3*5 {
		t.Errorf("spilled run created %d files, want a run per shard and chunk", fs.Creates())
	}

	if _, err := run(faultfs.New().FailCreate(7), 4000, nil); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("failing create: got %v, want ErrInjected", err)
	}
	if _, err := run(faultfs.New().FailWriteAfter(100<<10), 4000, nil); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("failing write: got %v, want ErrInjected", err)
	}
	g := qguard.New(context.Background(), qguard.Limits{MaxSpillBytes: 64 << 10})
	_, err = run(faultfs.New(), 4000, g)
	if be, ok := qguard.AsBudget(err); !ok || be.Resource != qguard.ResSpillBytes {
		t.Errorf("spill budget: got %v, want spill-bytes BudgetError", err)
	}
}

// runPublic evaluates through the public context-first API with the
// given engine and parallelism.
func runPublic(t *testing.T, c *core.Compiled, fact string, eng aw.Engine, par int) aw.Results {
	t.Helper()
	res, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: eng, Parallelism: par},
		TempDir:     filepath.Dir(fact),
	})
	if err != nil {
		t.Fatalf("engine=%v parallelism=%d: %v", eng, par, err)
	}
	return res
}

// TestShardedThroughPublicAPI: EngineAuto with Parallelism > 1 must
// pick the sharded engine for a shardable workflow and agree with the
// serial default, and explicit EngineShardScan must honor every
// parallelism level.
func TestShardedThroughPublicAPI(t *testing.T) {
	fact, s := synthCube(t, 12000, 17)
	all := model.LevelALL
	c, err := core.NewWorkflow(s).
		Basic("cnt", model.Gran{0, 1, all, all}, agg.Count, -1).
		Rollup("roll", model.Gran{0, all, all, all}, "cnt", agg.Sum).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := runPublic(t, c, fact, aw.EngineSortScan, 0)
	for _, par := range shardCounts {
		got := runPublic(t, c, fact, aw.EngineShardScan, par)
		if d := diffTables(want, got, 0); d != "" {
			t.Fatalf("parallelism=%d: %s", par, d)
		}
	}
	// EngineAuto + Parallelism resolves to the sharded engine.
	got := runPublic(t, c, fact, aw.EngineAuto, 4)
	if d := diffTables(want, got, 0); d != "" {
		t.Fatalf("auto parallel: %s", d)
	}
}

// shardOpts is a sharded sort/scan's options: the key, the shard count
// and the engines' option block.
func shardOpts(key model.SortKey, shards int, eo scan.EngineOptions) sortscan.Options {
	return sortscan.Options{EngineOptions: eo, SortKey: key, Workers: shards}
}
