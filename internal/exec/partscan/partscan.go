// Package partscan implements partitioned-parallel sort/scan — the
// distribution strategy the paper designed its language around
// ("potentially unlimited parallelism and ability to distribute
// computation", Sections 1 and 9) but left unimplemented.
//
// The fact table is split into P partitions by hashing each record's
// value of a chosen partition dimension at a chosen level; each
// partition runs the full one-pass sort/scan engine independently (in
// parallel goroutines, standing in for distributed workers), and the
// per-partition tables concatenate into the final result with no merge
// step.
//
// Concatenation is only correct when every measure's region set nests
// inside partition units, so Validate enforces, for every measure in
// the workflow (hidden bases included):
//
//   - the partition dimension is not at D_ALL (a global region would
//     need values from every partition), and
//   - the measure's level on the partition dimension is at or below
//     the partition level (each region maps into exactly one
//     partition), and
//   - sibling windows do not move along the partition dimension
//     (neighbors could live in other partitions).
//
// Workflows that fail validation still run everywhere else — this
// engine trades generality for embarrassing parallelism, exactly the
// design point of the paper's MapReduce-adjacent motivation.
package partscan

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"awra/internal/core"
	"awra/internal/exec/sortscan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/plan"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// Options configures a run.
type Options struct {
	// PartitionDim and PartitionLevel choose the partition unit.
	PartitionDim   int
	PartitionLevel model.Level
	// Partitions is the number of partitions/workers (>= 1).
	Partitions int
	// SortKey orders each partition's pass (same key everywhere).
	SortKey model.SortKey
	// TempDir receives partition files and sort runs.
	TempDir string
	// ChunkRecords tunes the per-partition external sorts.
	ChunkRecords int
	// ReadBatchBytes is the chunk size of the batched fact reads in
	// the split and each partition's sort/scan (0 = default).
	ReadBatchBytes int
	// Stats feeds footprint estimation (informational).
	Stats *plan.Stats
	// Recorder, if non-nil, receives a "partition" span for the split
	// phase, one "scan"-rooted span subtree per partition, a "combine"
	// span for concatenation, and the standard engine metrics.
	Recorder *obs.Recorder
	// Guard, if non-nil, enforces cancellation and resource budgets
	// during the split and inside every partition's sort/scan.
	Guard *qguard.Guard
}

// Stats aggregates per-partition costs.
type Stats struct {
	Records       int64
	PartitionTime time.Duration // splitting the fact file
	ScanTime      time.Duration // wall-clock for the parallel phase
	PeakCells     int64         // summed across concurrent partitions
	Partitions    int
}

// Result holds the concatenated tables.
type Result struct {
	Tables map[string]*core.Table
	Stats  Stats
}

// Validate reports whether the workflow can be evaluated
// partition-parallel on the given dimension and level.
func Validate(c *core.Compiled, dim int, lvl model.Level) error {
	sch := c.Schema
	if dim < 0 || dim >= sch.NumDims() {
		return fmt.Errorf("partscan: no dimension %d", dim)
	}
	l, err := sch.Dim(dim).Resolve(lvl)
	if err != nil {
		return fmt.Errorf("partscan: %w", err)
	}
	if l == sch.Dim(dim).ALL() {
		return fmt.Errorf("partscan: cannot partition on D_ALL")
	}
	for _, m := range c.Measures {
		if m.Gran[dim] == sch.Dim(dim).ALL() {
			return fmt.Errorf("partscan: measure %q is at D_ALL on %q; its regions span partitions",
				m.Name, sch.Dim(dim).Name())
		}
		if m.Gran[dim] > l {
			return fmt.Errorf("partscan: measure %q is coarser than the partition unit on %q",
				m.Name, sch.Dim(dim).Name())
		}
		for _, w := range m.Windows {
			if w.Dim == dim {
				return fmt.Errorf("partscan: measure %q has a sibling window along the partition dimension %q",
					m.Name, sch.Dim(dim).Name())
			}
		}
	}
	return nil
}

// Run validates, partitions the fact file, evaluates every partition
// in parallel, and concatenates the results.
func Run(c *core.Compiled, factPath string, opts Options) (*Result, error) {
	if opts.Partitions < 1 {
		opts.Partitions = 1
	}
	if err := Validate(c, opts.PartitionDim, opts.PartitionLevel); err != nil {
		return nil, err
	}
	lvl, _ := c.Schema.Dim(opts.PartitionDim).Resolve(opts.PartitionLevel)
	if opts.TempDir == "" {
		opts.TempDir = os.TempDir()
	}
	orec := opts.Recorder
	if orec == nil {
		orec = obs.New()
	}
	orec.Counter(obs.MPartitions).Add(int64(opts.Partitions))
	orec.Counter(obs.MFactScans).Add(1) // the split pass reads the fact file once

	// Phase 1: split (the shared partitioned-split substrate handles
	// writer lifecycle, cancellation, and spill accounting).
	t0 := time.Now()
	splitSpan := orec.Start(obs.SpanSplit)
	var res Result
	res.Stats.Partitions = opts.Partitions
	dim := c.Schema.Dim(opts.PartitionDim)
	paths, counts, err := storage.ShardFile(factPath, opts.Partitions, func(rec *model.Record) int {
		unit := dim.Up(0, lvl, rec.Dims[opts.PartitionDim])
		return int(uint64(mix(unit)) % uint64(opts.Partitions))
	}, storage.ShardOptions{TempDir: opts.TempDir, Prefix: "awra-part", Guard: opts.Guard})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	for _, n := range counts {
		res.Stats.Records += n
	}
	splitSpan.SetAttr("records", fmt.Sprint(res.Stats.Records))
	splitSpan.SetAttr("partitions", fmt.Sprint(opts.Partitions))
	splitSpan.End()
	res.Stats.PartitionTime = time.Since(t0)

	// Phase 2: evaluate partitions in parallel.
	t1 := time.Now()
	type partOut struct {
		res *sortscan.Result
		err error
	}
	outs := make([]partOut, opts.Partitions)
	var wg sync.WaitGroup
	for i := 0; i < opts.Partitions; i++ {
		wg.Add(1)
		pSpan := orec.Start(obs.SpanPartition)
		pSpan.SetAttr("part", fmt.Sprint(i))
		go func(i int, pSpan *obs.Span) {
			defer wg.Done()
			defer pSpan.End()
			// CPU profiles attribute partition work to the query (labels
			// inherited through the guard's context) and phase.
			pprof.SetGoroutineLabels(pprof.WithLabels(opts.Guard.Context(), pprof.Labels("phase", "partition")))
			defer pprof.SetGoroutineLabels(opts.Guard.Context())
			pr, err := sortscan.Run(c, paths[i], sortscan.Options{
				SortKey:        opts.SortKey,
				TempDir:        opts.TempDir,
				ChunkRecords:   opts.ChunkRecords,
				ReadBatchBytes: opts.ReadBatchBytes,
				Stats:          opts.Stats,
				Recorder:       orec.At(pSpan),
				Guard:          opts.Guard,
			})
			outs[i] = partOut{pr, err}
		}(i, pSpan)
	}
	wg.Wait()
	res.Stats.ScanTime = time.Since(t1)

	combSpan := orec.Start(obs.SpanCombine)
	defer combSpan.End()
	res.Tables = make(map[string]*core.Table)
	for _, name := range c.Outputs() {
		m, _ := c.MeasureByName(name)
		res.Tables[name] = core.NewTable(c.Schema, m.Gran)
	}
	for i, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("partscan: partition %d: %w", i, out.err)
		}
		res.Stats.PeakCells += out.res.Stats.PeakCells
		for name, tbl := range out.res.Tables {
			dst := res.Tables[name]
			for k, v := range tbl.Rows {
				if _, dup := dst.Rows[k]; dup {
					return nil, fmt.Errorf("partscan: region %s of %q produced by two partitions; validation is unsound",
						tbl.Codec.Format(k), name)
				}
				dst.Rows[k] = v
			}
		}
	}
	return &res, nil
}

// mix is SplitMix64's finalizer, so partition assignment is well
// distributed even for sequential unit codes.
func mix(x int64) int64 {
	u := uint64(x)
	u ^= u >> 30
	u *= 0xbf58476d1ce4e5b9
	u ^= u >> 27
	u *= 0x94d049bb133111eb
	u ^= u >> 31
	return int64(u)
}
