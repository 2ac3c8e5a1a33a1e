// Package awra's top-level benchmarks regenerate each figure of the
// paper (one testing.B benchmark per table/figure of Section 7) and
// add micro-benchmarks for the substrates. Figure benchmarks run one
// full experiment per iteration; use
//
//	go test -bench=Fig -benchtime=1x -benchmem
//
// to regenerate every figure once, or cmd/awbench for the table
// output with configurable scale.
package awra

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"awra/aw"
	"awra/internal/bench"
	"awra/internal/exec/scan"
	"awra/internal/gen"
	"awra/internal/model"
)

// benchScale keeps benchmark iterations to a few seconds each; the
// awbench CLI runs the full laptop scale.
const benchScale = 0.1

func runFigure(b *testing.B, id string) {
	dir := b.TempDir()
	cfg := bench.Config{Dir: dir, Scale: benchScale, Seed: 2006}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig6a: Q1 child/parent match with 7 child measures across
// dataset sizes (sort/scan vs relational vs single-scan).
func BenchmarkFig6a(b *testing.B) { runFigure(b, "fig6a") }

// BenchmarkFig6b: Q2 sibling chains (2 and 7 deep) across sizes.
func BenchmarkFig6b(b *testing.B) { runFigure(b, "fig6b") }

// BenchmarkFig6c: increasing number of dependent child measures.
func BenchmarkFig6c(b *testing.B) { runFigure(b, "fig6c") }

// BenchmarkFig6d: increasing sibling chain length.
func BenchmarkFig6d(b *testing.B) { runFigure(b, "fig6d") }

// BenchmarkFig6e: sort-vs-scan cost breakdown.
func BenchmarkFig6e(b *testing.B) { runFigure(b, "fig6e") }

// BenchmarkFig6f: combined network query.
func BenchmarkFig6f(b *testing.B) { runFigure(b, "fig6f") }

// BenchmarkFig7a: network escalation detection.
func BenchmarkFig7a(b *testing.B) { runFigure(b, "fig7a") }

// BenchmarkFig7b: multi-recon detection.
func BenchmarkFig7b(b *testing.B) { runFigure(b, "fig7b") }

// BenchmarkAblKey: ablation — optimizer-chosen vs worst sort key.
func BenchmarkAblKey(b *testing.B) { runFigure(b, "abl-key") }

// BenchmarkAblFlush: ablation — early flushing on/off.
func BenchmarkAblFlush(b *testing.B) { runFigure(b, "abl-flush") }

// BenchmarkAblPar: ablation — sharded sort/scan at 1, 2 and 4 workers.
func BenchmarkAblPar(b *testing.B) { runFigure(b, "abl-par") }

// --- substrate micro-benchmarks ---

func synthFact(b *testing.B, n int64) (string, *aw.Schema) {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "fact.rec")
	s, err := gen.Synth(path, n, gen.SynthConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return path, s
}

// BenchmarkExternalSort measures the sorting substrate on 100k
// 4-dimensional records.
func BenchmarkExternalSort(b *testing.B) {
	path, s := synthFact(b, 100000)
	key, err := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}.Normalize(s)
	if err != nil {
		b.Fatal(err)
	}
	out := path + ".sorted"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := scan.SortFileByKey(path, out, s, key, scan.SortOptions{ChunkRecords: 16384})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanThroughput measures raw record-file streaming through
// the batched reader every file query uses.
func BenchmarkScanThroughput(b *testing.B) {
	path, _ := synthFact(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := scan.Open(path, scan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, err := r.NextBatch()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
			n += len(batch)
		}
		r.Close()
		if n != 100000 {
			b.Fatalf("read %d records", n)
		}
	}
	b.SetBytes(100000 * 40)
}

// engineWorkflow is a representative mixed workflow for the engine
// micro-benchmarks.
func engineWorkflow(b *testing.B, s *aw.Schema) *aw.Compiled {
	b.Helper()
	all := aw.LevelALL
	c, err := aw.NewWorkflow(s).
		Basic("cnt", aw.Gran{1, 1, all, all}, aw.Count, -1).
		Rollup("per1", aw.Gran{2, all, all, all}, "cnt", aw.Sum).
		Sliding("trend", "per1", aw.Avg, []aw.Window{{Dim: 0, Lo: -1, Hi: 1}}).
		Combine("ratio", []string{"per1", "trend"}, aw.Ratio(0, 1)).
		Compile()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSortScanEngine measures the streaming engine end to end
// (sort + scan) on 100k records.
func BenchmarkSortScanEngine(b *testing.B) {
	path, s := synthFact(b, 100000)
	c := engineWorkflow(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := aw.RunCompiled(context.Background(), c, aw.FromFile(path), aw.QueryOptions{
			ExecOptions: aw.ExecOptions{Engine: aw.EngineSortScan},
			TempDir:     filepath.Dir(path),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res["ratio"].Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkSingleScanEngine measures the hash-everything baseline on
// the same workload.
func BenchmarkSingleScanEngine(b *testing.B) {
	path, s := synthFact(b, 100000)
	c := engineWorkflow(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := aw.RunCompiled(context.Background(), c, aw.FromFile(path), aw.QueryOptions{
			ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan},
			TempDir:     filepath.Dir(path),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res["ratio"].Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkParallelSort measures the concurrent run-generation path
// against the sequential sort on the same input.
func BenchmarkParallelSort(b *testing.B) {
	for _, workers := range []int{0, 2} {
		name := "sequential"
		if workers > 1 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			path, s := synthFact(b, 200000)
			key, err := model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 0}}.Normalize(s)
			if err != nil {
				b.Fatal(err)
			}
			out := path + ".sorted"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := scan.SortFileByKey(path, out, s, key, scan.SortOptions{ChunkRecords: 8192, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamPush measures per-record streaming-session overhead.
func BenchmarkStreamPush(b *testing.B) {
	_, s := synthFact(b, 1000)
	c := engineWorkflow(b, s)
	key, _, err := aw.BestSortKey(c, nil)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := aw.RunStreamCompiled(context.Background(), c, aw.StreamOptions{SortKey: key})
	if err != nil {
		b.Fatal(err)
	}
	rec := aw.Record{Dims: make([]int64, 4), Ms: []float64{1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Monotone in every dimension, so any sort key is respected.
		v := int64(i / 16)
		rec.Dims[0], rec.Dims[1], rec.Dims[2], rec.Dims[3] = v, v, v, v
		if err := stream.Push(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregatorUpdate measures the hot aggregation path.
func BenchmarkAggregatorUpdate(b *testing.B) {
	for _, k := range []aw.AggKind{aw.Count, aw.Sum, aw.Avg, aw.Var} {
		b.Run(k.String(), func(b *testing.B) {
			a := k.New()
			for i := 0; i < b.N; i++ {
				a.Update(float64(i & 1023))
			}
			_ = a.Final()
		})
	}
}

// BenchmarkKeyEncode measures region-key construction, the inner loop
// of every engine.
func BenchmarkKeyEncode(b *testing.B) {
	_, s := synthFact(b, 1000)
	g, err := s.Normalize(aw.Gran{1, 1, aw.LevelALL, aw.LevelALL})
	if err != nil {
		b.Fatal(err)
	}
	codec := model.NewKeyCodec(s, g)
	rng := rand.New(rand.NewSource(1))
	dims := make([][]int64, 256)
	for i := range dims {
		dims[i] = []int64{rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000)}
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(codec.FromBase(dims[i&255]))
	}
	if sink == 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkWorkflowCompile measures compilation of a mid-size
// workflow, which should be negligible next to evaluation.
func BenchmarkWorkflowCompile(b *testing.B) {
	_, s := synthFact(b, 1000)
	all := aw.LevelALL
	for i := 0; i < b.N; i++ {
		w := aw.NewWorkflow(s)
		for j := 0; j < 8; j++ {
			w.Basic(fmt.Sprintf("b%d", j), aw.Gran{1, aw.Level(j % 3), all, all}, aw.Count, -1)
		}
		for j := 0; j < 8; j++ {
			w.Rollup(fmt.Sprintf("r%d", j), aw.Gran{2, all, all, all}, fmt.Sprintf("b%d", j), aw.Sum)
		}
		if _, err := w.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}
