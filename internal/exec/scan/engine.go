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

// Stats is one engine run's costs in the engine vocabulary — the
// paper's §7 cost terms: sort vs. scan time (Figure 6(e)) and the
// live-cell footprint of Tables 7-8. Each count mirrors the metric
// named beside it in the run's recorder; the durations are the run's
// sort, scan and combine phases.
type Stats struct {
	Records           int64 // records_scanned
	FactScans         int64 // fact_scans
	Passes            int64 // passes
	CellsCreated      int64 // cells_created
	CellsFinalized    int64 // cells_finalized
	FlushBatches      int64 // flush_batches
	WatermarkAdvances int64 // watermark_advances
	PeakCells         int64 // live_cells_hwm
	PeakBytes         int64 // hashtable_bytes_hwm
	Spills            int64 // spill_events
	SpillBytes        int64 // spill_bytes
	SpilledEntries    int64 // spilled_entries
	SortRuns          int64 // sort_runs

	SortTime, ScanTime, CombineTime time.Duration
}

// Result is what every engine returns: the workflow's output tables by
// measure name (hidden measures dropped) and the run's stats.
type Result struct {
	Tables map[string]*core.Table
	Stats  Stats
}

// Add folds o into s the way the recorder folds two publishes: counts
// and durations add, high-water marks take the larger.
func (s *Stats) Add(o Stats) {
	s.Records += o.Records
	s.FactScans += o.FactScans
	s.Passes += o.Passes
	s.CellsCreated += o.CellsCreated
	s.CellsFinalized += o.CellsFinalized
	s.FlushBatches += o.FlushBatches
	s.WatermarkAdvances += o.WatermarkAdvances
	s.PeakCells = max(s.PeakCells, o.PeakCells)
	s.PeakBytes = max(s.PeakBytes, o.PeakBytes)
	s.Spills += o.Spills
	s.SpillBytes += o.SpillBytes
	s.SpilledEntries += o.SpilledEntries
	s.SortRuns += o.SortRuns
	s.SortTime += o.SortTime
	s.ScanTime += o.ScanTime
	s.CombineTime += o.CombineTime
}

// Publish writes the stats to the recorder under the engine vocabulary,
// every name whether zero or not, so all engines export one set. It
// takes an engine's own counts: what the sort publishes itself (its
// runs and run files, see Sorted.EngineStats) joins a run's Stats after
// this, never through it.
func (s Stats) Publish(rec *obs.Recorder) {
	rec.Counter(obs.MRecordsScanned).Add(s.Records)
	rec.Counter(obs.MFactScans).Add(s.FactScans)
	rec.Counter(obs.MPasses).Add(s.Passes)
	rec.Counter(obs.MCellsCreated).Add(s.CellsCreated)
	rec.Counter(obs.MCellsFinalized).Add(s.CellsFinalized)
	rec.Counter(obs.MFlushBatches).Add(s.FlushBatches)
	rec.Counter(obs.MWatermarkAdvances).Add(s.WatermarkAdvances)
	rec.Gauge(obs.GLiveCellsHWM).SetMax(s.PeakCells)
	rec.Gauge(obs.GHashBytesHWM).SetMax(s.PeakBytes)
	rec.Counter(obs.MSpillEvents).Add(s.Spills)
	rec.Counter(obs.MSpillBytes).Add(s.SpillBytes)
	rec.Counter(obs.MSpilledEntries).Add(s.SpilledEntries)
	rec.Counter(obs.MSortRuns).Add(s.SortRuns)
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

// SortStream sorts the input by key under one "sort" span, annotated
// with the key and the runs formed, and opens the sorted rows as one
// stream, writing runs on workers goroutines. Closing the stream also
// removes the sort's run files. It returns the sort's share of the
// run's Stats: its duration, and the counts the sort published itself.
func (o EngineOptions) SortStream(in Input, schema *model.Schema, key model.SortKey, from model.Gran, workers int) (BatchSource, Stats, error) {
	span := o.Recorder.Start(obs.SpanSort)
	defer span.End()
	span.SetAttr("key", key.String(schema))
	sorted, err := o.Sort(in, schema, key, from, 1, workers, o.Recorder.At(span))
	if err != nil {
		return nil, Stats{}, err
	}
	src, err := sorted.Open(0)
	if err != nil {
		sorted.Close()
		return nil, Stats{}, err
	}
	span.SetAttr("runs", fmt.Sprint(sorted.Stats().Runs))
	span.End()
	st := sorted.EngineStats()
	st.SortTime = span.Duration()
	return sortedStream{src, sorted}, st, nil
}

// sortedStream is a sorted input's one stream; closing it releases the
// sort too.
type sortedStream struct {
	*SortedSource
	sorted *Sorted
}

func (s sortedStream) Close() error {
	err := s.SortedSource.Close()
	s.sorted.Close()
	return err
}

// ScanPhase is an engine's scan phase over an opened source, under one
// "scan" span carrying the source's row count as its total. It hands
// kernel the rows in slices of at most stride, and before each slice
// checks cancellation and, when live is non-nil, the live-cell budget
// against live(), keeping the span's progress current. On every return
// it ends the span, with the rows scanned as its records attribute, and
// publishes the source's read stats. It returns the rows the kernel
// took and the span's duration.
func (o EngineOptions) ScanPhase(src BatchSource, stride int, live func() int64, kernel func(rows []Record) error) (records int64, d time.Duration, err error) {
	span := o.Recorder.Start(obs.SpanScan)
	span.SetTotal(src.Header().Count)
	defer func() {
		span.SetDone(records)
		span.SetAttr("records", fmt.Sprint(records))
		span.End()
		d = span.Duration()
		PublishReadStats(o.Recorder, src)
	}()
	for {
		batch, err := src.NextBatch()
		if err != nil || batch == nil {
			return records, 0, err
		}
		for len(batch) > 0 {
			span.SetDone(records)
			if err := o.Guard.Err(); err != nil {
				return records, 0, err
			}
			if live != nil {
				if err := o.Guard.NoteLiveCells(live()); err != nil {
					return records, 0, err
				}
			}
			rows := batch[:min(stride, len(batch))]
			batch = batch[len(rows):]
			if err := kernel(rows); err != nil {
				return records, 0, err
			}
			records += int64(len(rows))
		}
	}
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
// node's stats, charges non-hidden rows to the guard, adds the cells
// finalized and the phase's duration to st, and returns the workflow's
// output tables by name.
func (o EngineOptions) Composites(c *core.Compiled, tables []*core.Table, cells []func(yield func(model.Key, float64)), st *Stats) (map[string]*core.Table, error) {
	span := o.Recorder.Start(obs.SpanCombine)
	defer span.End()
	for i, m := range c.Measures {
		if m.Kind == core.KindBasic {
			continue
		}
		if err := o.Guard.Err(); err != nil {
			return nil, err
		}
		var tbl *core.Table
		if src := m.Sources[0]; m.Kind == core.KindRollup && m.Agg.OrderInsensitive() && cells != nil && cells[src] != nil {
			tbl = core.RollUp(c, m, cells[src])
		} else {
			var err error
			if tbl, err = core.ComputeComposite(c, m, tables); err != nil {
				return nil, fmt.Errorf("combining %q: %w", m.Name, err)
			}
		}
		st.CellsFinalized += int64(len(tbl.Rows))
		ns := obs.NodeStats{Node: m.Name, CellsFinalized: int64(len(tbl.Rows))}
		for _, si := range m.Sources {
			if tables[si] != nil {
				ns.RecordsIn += int64(len(tables[si].Rows))
			}
		}
		if !m.Hidden {
			ns.RecordsOut = int64(len(tbl.Rows))
			if err := o.Guard.NoteResultRows(int64(len(tbl.Rows))); err != nil {
				return nil, err
			}
		}
		o.Recorder.MergeNodeStats(ns)
		tables[i] = tbl
	}
	span.End()
	st.CombineTime += span.Duration()
	outputs := make(map[string]*core.Table)
	for _, name := range c.Outputs() {
		i, _ := c.Index(name)
		outputs[name] = tables[i]
	}
	return outputs, nil
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
