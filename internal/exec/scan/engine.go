package scan

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"awra/internal/core"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// EngineOptions is the option block every engine embeds: where its
// temporary files go, how it reads and sorts its input, and what
// observes and guards it. Engines open, sort and name temporary files
// through its methods, so all of them treat each knob the same way.
type EngineOptions struct {
	// TempDir receives sort runs, single-scan spills and the relational
	// baseline's spooled intermediates; empty uses os.TempDir().
	TempDir string
	// ReadBatchBytes is the chunk size of batched file reads
	// (0 = DefaultBatchBytes). In-memory input batches by record count.
	ReadBatchBytes int
	// ChunkRecords is how many records an external sort holds in memory
	// at a time (0 = a default sized for roughly 256 MB).
	ChunkRecords int
	// Recorder, if non-nil, receives the run's phase spans and the
	// standard engine metrics. A nil one is replaced by a private
	// recorder (WithDefaults), so the engine's Stats stay complete; hot
	// loops never touch it either way.
	Recorder *obs.Recorder
	// Guard, if non-nil, enforces cancellation, resource budgets and the
	// degraded-read policy. Checks run at batch and phase boundaries, so
	// a budget may overshoot slightly before the run aborts.
	Guard *qguard.Guard
}

// WithDefaults returns the options with a private recorder in place of
// a nil one.
func (o EngineOptions) WithDefaults() EngineOptions {
	if o.Recorder == nil {
		o.Recorder = obs.New()
	}
	return o
}

// Open opens the input for a scan, in the options' read batches and
// under their guard.
func (o EngineOptions) Open(in Input) (BatchSource, error) {
	return in.Open(Options{BatchBytes: o.ReadBatchBytes, Guard: o.Guard})
}

// Sort sorts the input by key into parts ordered streams (SortByKey),
// writing runs on workers goroutines, with the sort's spans and metrics
// under rec.
func (o EngineOptions) Sort(in Input, schema *model.Schema, key model.SortKey, from model.Gran, parts, workers int, rec *obs.Recorder) (*Sorted, error) {
	return SortByKey(in, schema, key, from, parts, SortOptions{
		ChunkRecords: o.ChunkRecords, TempDir: o.TempDir, Workers: workers,
		BatchBytes: o.ReadBatchBytes, Recorder: rec, Guard: o.Guard,
	})
}

// tempSeq keeps temporary files of concurrent queries sharing a
// directory apart.
var tempSeq atomic.Int64

// TempPath names a new temporary file in TempDir (os.TempDir() when
// empty); kind says what it holds. The caller creates and removes it.
func (o EngineOptions) TempPath(kind string) string {
	dir := o.TempDir
	if dir == "" {
		dir = os.TempDir()
	}
	return filepath.Join(dir, fmt.Sprintf("awra-%s-%d-%d.tmp", kind, os.Getpid(), tempSeq.Add(1)))
}

// Composites is the combine phase of the engines that materialize their
// basic measures first: it computes every composite measure into tables
// in the workflow's topological order, under one "combine" span. An
// order-insensitive roll-up whose source has a cell stream in cells
// reads that stream instead of the source's table. It publishes each
// node's stats and the cells finalized, charges non-hidden rows to the
// guard, and returns the workflow's output tables by name and the
// phase's duration.
func (o EngineOptions) Composites(c *core.Compiled, tables []*core.Table, cells []func(yield func(model.Key, float64))) (map[string]*core.Table, time.Duration, error) {
	span := o.Recorder.Start(obs.SpanCombine)
	defer span.End()
	var finalized int64
	for i, m := range c.Measures {
		if m.Kind == core.KindBasic {
			continue
		}
		if err := o.Guard.Err(); err != nil {
			return nil, 0, err
		}
		var tbl *core.Table
		if src := m.Sources[0]; m.Kind == core.KindRollup && m.Agg.OrderInsensitive() && cells != nil && cells[src] != nil {
			tbl = core.RollUp(c, m, cells[src])
		} else {
			var err error
			if tbl, err = core.ComputeComposite(c, m, tables); err != nil {
				return nil, 0, fmt.Errorf("combining %q: %w", m.Name, err)
			}
		}
		finalized += int64(len(tbl.Rows))
		ns := obs.NodeStats{Node: m.Name, CellsFinalized: int64(len(tbl.Rows))}
		for _, si := range m.Sources {
			if tables[si] != nil {
				ns.RecordsIn += int64(len(tables[si].Rows))
			}
		}
		if !m.Hidden {
			ns.RecordsOut = int64(len(tbl.Rows))
			if err := o.Guard.NoteResultRows(int64(len(tbl.Rows))); err != nil {
				return nil, 0, err
			}
		}
		o.Recorder.MergeNodeStats(ns)
		tables[i] = tbl
	}
	o.Recorder.Counter(obs.MCellsFinalized).Add(finalized)
	span.End()
	outputs := make(map[string]*core.Table)
	for _, name := range c.Outputs() {
		i, _ := c.Index(name)
		outputs[name] = tables[i]
	}
	return outputs, span.Duration(), nil
}

// ReadTable reads a measure table stored as rows of full-length region
// codes and one value — a result store's measure file, or a relational
// baseline spool — into a table of granularity gran.
func ReadTable(in Input, opts Options, s *model.Schema, gran model.Gran) (*core.Table, error) {
	src, err := in.Open(opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	nd := s.NumDims()
	if h := src.Header(); h.NumDims != nd || h.NumMeasures != 1 {
		return nil, fmt.Errorf("scan: table rows have %d dimensions and %d measures, want %d and 1 (%w)",
			h.NumDims, h.NumMeasures, nd, storage.ErrCorrupt)
	}
	tbl := core.NewTable(s, gran)
	codes := make([]int64, 0, nd)
	for {
		batch, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return tbl, nil
		}
		for _, row := range batch {
			codes = codes[:0]
			for d := 0; d < nd; d++ {
				if gran[d] != s.Dim(d).ALL() {
					codes = append(codes, row.Dim(d))
				}
			}
			k, err := tbl.Codec.FromCodesChecked(codes)
			if err != nil {
				return nil, err
			}
			tbl.Rows[k] = row.Measure(nd, 0)
		}
	}
}
