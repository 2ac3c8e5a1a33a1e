// Package singlescan implements the single-scan algorithm of
// Section 5.1 (following Johnson & Chatziantoniou [19]): one hash
// table per measure, all basic measures evaluated simultaneously in a
// single pass over the unsorted dataset, then composite measures
// computed in topological order.
//
// The algorithm "is effective only when the size of memory is big
// enough to hold all hash tables". To reproduce that regime at laptop
// scale, the engine takes an optional memory budget: when the live
// hash tables exceed it, the largest table is serialized to a spill
// file and cleared, and at end of scan spilled partial states are
// externally sorted and merged back — a real out-of-core fallback
// whose extra disk round-trips produce the paper's "slows down
// significantly due to insufficient memory" behaviour honestly.
package singlescan

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/cellmap"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// Options configures a run.
type Options struct {
	// MemoryBudget caps the estimated bytes of live basic-measure hash
	// tables; 0 means unlimited. Exceeding it triggers spilling.
	MemoryBudget int64
	// TempDir receives spill files; empty uses os.TempDir().
	TempDir string
	// ReadBatchBytes is the chunk size of the batched fact reads in
	// RunFile (0 = scan.DefaultBatchBytes).
	ReadBatchBytes int
	// Recorder, if non-nil, receives the run's phase spans (scan,
	// spill_merge, combine) and the standard engine metrics.
	Recorder *obs.Recorder
	// Guard, if non-nil, enforces cancellation and resource budgets.
	// Checks happen at scan strides and phase boundaries, so budgets
	// may overshoot slightly before the run aborts.
	Guard *qguard.Guard
}

// Stats reports what a run did.
type Stats struct {
	Records   int64
	PeakBytes int64
	// Spills counts spill events; SpilledEntries the entries written.
	Spills         int
	SpilledEntries int64
	// ScanTime and CompositeTime split the two phases.
	ScanTime      time.Duration
	CompositeTime time.Duration
}

// Result holds the computed measure tables, keyed by measure name
// (outputs only; hidden bases are dropped).
type Result struct {
	Tables map[string]*core.Table
	Stats  Stats
}

// table is the in-flight state of one basic measure: an open-addressing
// cell table over encoded region keys plus the measure's aggregate
// column, indexed by the table's dense cell ids.
type table struct {
	m   *core.Measure
	tab *cellmap.Table
	col *agg.Column
	// Cell key recipe: for each non-ALL dimension (schema order), the
	// base dimension index, the dimension, and the target level. The
	// produced bytes are identical to m.Codec.FromBase.
	dIdx   []int
	dims   []*model.Dimension
	lvls   []model.Level
	keyBuf []byte
	bytes  int64
	// spill bookkeeping
	spillPath  string
	spillGen   int64
	writer     *storage.Writer
	spillBytes int64 // bytes written to the spill file
	guard      *qguard.Guard
	// Per-node tallies (plain fields, published at end of run).
	recordsIn int64
	created   int64
	finalized int64
	live      int64
	liveHWM   int64
}

func newTable(c *core.Compiled, m *core.Measure, guard *qguard.Guard) *table {
	t := &table{m: m, tab: cellmap.New(m.Codec.KeyBytes()), col: m.Agg.NewColumn(), guard: guard}
	for d := 0; d < c.Schema.NumDims(); d++ {
		dim := c.Schema.Dim(d)
		if m.Gran[d] == dim.ALL() {
			continue
		}
		t.dIdx = append(t.dIdx, d)
		t.dims = append(t.dims, dim)
		t.lvls = append(t.lvls, m.Gran[d])
	}
	t.keyBuf = make([]byte, 0, 8*len(t.dIdx))
	return t
}

// Run evaluates the workflow over the record source.
func Run(c *core.Compiled, src storage.Source, opts Options) (*Result, error) {
	bsrc := scan.NewBatcher(src, c.Schema.NumDims(), c.Schema.NumMeasures())
	return run(c, bsrc, opts)
}

// RunFile evaluates the workflow over a record file through the
// batched zero-copy reader — the fast path for file-backed runs.
func RunFile(c *core.Compiled, path string, opts Options) (*Result, error) {
	r, err := scan.Open(path, scan.Options{BatchBytes: opts.ReadBatchBytes, Guard: opts.Guard})
	if err != nil {
		return nil, fmt.Errorf("singlescan: %w", err)
	}
	defer r.Close()
	return run(c, r, opts)
}

func run(c *core.Compiled, bsrc scan.BatchSource, opts Options) (*Result, error) {
	orec := opts.Recorder
	if orec == nil {
		orec = obs.New() // private recorder so Stats stays complete
	}
	start := time.Now()
	tempDir := opts.TempDir
	if tempDir == "" {
		tempDir = os.TempDir()
	}

	var stats Stats
	var basics []*table
	var totalBytes int64
	needRec := false
	for _, m := range c.Measures {
		if m.Kind == core.KindBasic {
			basics = append(basics, newTable(c, m, opts.Guard))
			if m.Filter != nil {
				needRec = true
			}
		}
	}
	defer func() {
		for _, t := range basics {
			if t.writer != nil {
				t.writer.Close()
			}
			if t.spillPath != "" {
				os.Remove(t.spillPath)
			}
		}
	}()

	// Phase 1: one scan, all basic measures at once (Table 7 lines
	// 3-7, without the sort). Records arrive as verified zero-copy
	// byte-slice batches; per-record work is key assembly into a
	// reusable buffer, one open-addressing probe, and the aggregate
	// update.
	scanSpan := orec.Start(obs.SpanScan)
	if tc, ok := bsrc.(interface{ TotalRecords() int64 }); ok {
		scanSpan.SetTotal(tc.TotalRecords())
	}
	numDims := c.Schema.NumDims()
	var frec model.Record
	if needRec {
		frec = model.Record{Dims: make([]int64, numDims), Ms: make([]float64, c.Schema.NumMeasures())}
	}
	var cellsCreated, liveCells, peakLive int64
	for {
		batch, err := bsrc.NextBatch()
		if err != nil {
			return nil, fmt.Errorf("singlescan: %w", err)
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			stats.Records++
			// Keep the fine in-batch stride: file batches span tens of
			// thousands of rows, too coarse for cancellation latency.
			if stats.Records&255 == 0 {
				scanSpan.SetDone(stats.Records)
				if err := opts.Guard.Err(); err != nil {
					return nil, err
				}
				if err := opts.Guard.NoteLiveCells(liveCells); err != nil {
					return nil, err
				}
			}
			if needRec {
				row.DecodeInto(frec.Dims, frec.Ms)
			}
			for _, t := range basics {
				m := t.m
				t.recordsIn++
				if m.Filter != nil && !m.Filter.Eval(frec.Dims, frec.Ms) {
					continue
				}
				kb := t.keyBuf[:0]
				for j, d := range t.dIdx {
					kb = model.AppendKeyCode(kb, t.dims[j].Up(0, t.lvls[j], row.Dim(d)))
				}
				t.keyBuf = kb
				idx, created := t.tab.Insert(kb)
				if created {
					t.col.Append()
					cellsCreated++
					liveCells++
					if liveCells > peakLive {
						peakLive = liveCells
					}
					t.created++
					t.live++
					if t.live > t.liveHWM {
						t.liveHWM = t.live
					}
					delta := int64(len(kb)) + int64(t.col.Bytes(idx)) + 16
					t.bytes += delta
					totalBytes += delta
				}
				v := 0.0
				if m.FactMeasure >= 0 {
					v = row.Measure(numDims, m.FactMeasure)
				}
				if d := int64(t.col.Update(idx, v)); d != 0 {
					t.bytes += d
					totalBytes += d
				}
			}
			if totalBytes > stats.PeakBytes {
				stats.PeakBytes = totalBytes
			}
			if opts.MemoryBudget > 0 && totalBytes > opts.MemoryBudget {
				// Spill the largest table and keep scanning.
				victim := basics[0]
				for _, t := range basics {
					if t.bytes > victim.bytes {
						victim = t
					}
				}
				n, err := victim.spill(tempDir)
				if err != nil {
					return nil, err
				}
				stats.Spills++
				stats.SpilledEntries += n
				liveCells -= n
				victim.live -= n
				totalBytes -= victim.bytes
				victim.bytes = 0
			}
		}
	}
	scanSpan.SetDone(stats.Records)
	scanSpan.SetAttr("records", fmt.Sprint(stats.Records))
	scanSpan.End()

	// Merge spilled partial states back (external sort + merge).
	spillSpan := orec.Start(obs.SpanSpill)
	var cellsFinalized int64
	tables := make([]*core.Table, len(c.Measures))
	for _, t := range basics {
		if err := opts.Guard.Err(); err != nil {
			return nil, err
		}
		var tbl *core.Table
		if t.spillPath != "" {
			// Spill the in-memory remainder so everything is on disk,
			// then sort and merge.
			if _, err := t.spill(tempDir); err != nil {
				return nil, err
			}
			stats.Spills++
			var err error
			tbl, err = t.mergeSpills(c.Schema, tempDir, orec)
			if err != nil {
				return nil, err
			}
		} else {
			tbl = core.NewTable(c.Schema, t.m.Gran)
			// Exact-size map build from the dense arena: one growth-free
			// insert per cell, in insertion order. The arena is copied
			// into one string and every key is a substring of it, so the
			// table costs one allocation and not one per cell.
			n, kl := t.tab.Len(), t.tab.KeyLen()
			keys := string(t.tab.Keys())
			tbl.Rows = make(map[model.Key]float64, n)
			for i := 0; i < n; i++ {
				tbl.Rows[model.Key(keys[i*kl:i*kl+kl])] = t.col.Final(int32(i))
			}
		}
		cellsFinalized += int64(len(tbl.Rows))
		t.finalized = int64(len(tbl.Rows))
		if !t.m.Hidden {
			if err := opts.Guard.NoteResultRows(int64(len(tbl.Rows))); err != nil {
				return nil, err
			}
		}
		i, err := c.Index(t.m.Name)
		if err != nil {
			return nil, err
		}
		tables[i] = tbl
	}
	spillSpan.End()
	stats.ScanTime = time.Since(start)

	// Phase 2: composite measures in topological order (the
	// workflow's compiled order).
	compSpan := orec.Start(obs.SpanCombine)
	for i, m := range c.Measures {
		if m.Kind == core.KindBasic {
			continue
		}
		if err := opts.Guard.Err(); err != nil {
			return nil, err
		}
		tbl, err := core.ComputeComposite(c, m, tables)
		if err != nil {
			return nil, fmt.Errorf("singlescan: %w", err)
		}
		cellsFinalized += int64(len(tbl.Rows))
		ns := obs.NodeStats{Node: m.Name, CellsFinalized: int64(len(tbl.Rows))}
		for _, si := range m.Sources {
			if tables[si] != nil {
				ns.RecordsIn += int64(len(tables[si].Rows))
			}
		}
		if !m.Hidden {
			ns.RecordsOut = int64(len(tbl.Rows))
			if err := opts.Guard.NoteResultRows(int64(len(tbl.Rows))); err != nil {
				return nil, err
			}
		}
		orec.MergeNodeStats(ns)
		tables[i] = tbl
	}
	compSpan.End()
	stats.CompositeTime = compSpan.Duration()

	var peak2 int64
	for i := range tables {
		if tables[i] != nil {
			peak2 += int64(len(tables[i].Rows)) * int64(c.Measures[i].Codec.KeyBytes()+24)
		}
	}
	if peak2 > stats.PeakBytes {
		stats.PeakBytes = peak2
	}

	// Publish the standard engine vocabulary (phase-boundary only).
	var spilledBytes int64
	for _, t := range basics {
		spilledBytes += t.spillBytes
	}
	orec.Counter(obs.MRecordsScanned).Add(stats.Records)
	orec.Counter(obs.MCellsCreated).Add(cellsCreated)
	orec.Counter(obs.MCellsFinalized).Add(cellsFinalized)
	orec.Counter(obs.MSpillEvents).Add(int64(stats.Spills))
	orec.Counter(obs.MSpillBytes).Add(spilledBytes)
	orec.Counter(obs.MSpilledEntries).Add(stats.SpilledEntries)
	orec.Gauge(obs.GLiveCellsHWM).SetMax(peakLive)
	orec.Gauge(obs.GHashBytesHWM).SetMax(stats.PeakBytes)
	scan.PublishReadStats(orec, bsrc)
	var probeHWM, grows, arena int64
	for _, t := range basics {
		ts := t.tab.Stats()
		if ts.ProbeHWM > probeHWM {
			probeHWM = ts.ProbeHWM
		}
		grows += ts.Grows
		arena += ts.ArenaBytesHWM
	}
	orec.Counter(obs.MCellTableGrows).Add(grows)
	orec.Gauge(obs.GCellProbeHWM).SetMax(probeHWM)
	orec.Gauge(obs.GCellArenaBytes).SetMax(arena)
	for _, t := range basics {
		ns := obs.NodeStats{
			Node:           t.m.Name,
			RecordsIn:      t.recordsIn,
			CellsCreated:   t.created,
			CellsFinalized: t.finalized,
			LiveCellsHWM:   t.liveHWM,
		}
		if !t.m.Hidden {
			ns.RecordsOut = t.finalized
		}
		orec.MergeNodeStats(ns)
	}

	res := &Result{Tables: make(map[string]*core.Table), Stats: stats}
	for _, name := range c.Outputs() {
		i, _ := c.Index(name)
		res.Tables[name] = tables[i]
	}
	return res, nil
}

// spillSeq disambiguates spill paths across concurrent queries in one
// process sharing a temp directory.
var spillSeq atomic.Int64

// spill writes every live entry's aggregator state to the measure's
// spill file as fixed-width rows (key codes..., generation, position)
// -> state value, then clears the hash table.
func (t *table) spill(tempDir string) (int64, error) {
	if t.writer == nil {
		// Measure names repeat across concurrent queries; the sequence
		// keeps one query's spill from clobbering another's.
		t.spillPath = filepath.Join(tempDir, fmt.Sprintf("awra-spill-%d-%d-%s.tmp",
			os.Getpid(), spillSeq.Add(1), sanitize(t.m.Name)))
		w, err := storage.Create(t.spillPath, t.m.Codec.Width()+2, 1)
		if err != nil {
			return 0, fmt.Errorf("singlescan: create spill: %w", err)
		}
		t.writer = w
	}
	var n int64
	bytesBefore := t.spillBytes
	rowBytes := int64(8 * (t.m.Codec.Width() + 2 + 1))
	width := t.m.Codec.Width()
	rec := model.Record{Dims: make([]int64, width+2), Ms: make([]float64, 1)}
	for i := 0; i < t.tab.Len(); i++ {
		codes := t.m.Codec.Decode(model.Key(t.tab.KeyAt(int32(i))))
		copy(rec.Dims, codes)
		rec.Dims[width] = t.spillGen
		state := t.col.State(int32(i))
		if len(state) == 0 {
			// Keep one marker row per entry so empty states survive
			// the round trip; position -1 means "no state values".
			rec.Dims[width+1] = -1
			rec.Ms[0] = 0
			if err := t.writer.Write(&rec); err != nil {
				return n, fmt.Errorf("singlescan: write spill: %w", err)
			}
			t.spillBytes += rowBytes
		}
		for j, v := range state {
			rec.Dims[width+1] = int64(j)
			rec.Ms[0] = v
			if err := t.writer.Write(&rec); err != nil {
				return n, fmt.Errorf("singlescan: write spill: %w", err)
			}
			t.spillBytes += rowBytes
		}
		n++
	}
	t.tab.Reset()
	t.col.Reset()
	t.spillGen++
	if err := t.guard.NoteSpill(t.spillBytes - bytesBefore); err != nil {
		return n, err
	}
	return n, nil
}

// mergeSpills sorts the spill file by (key, generation, position),
// restores per-generation states, and merges them per key.
func (t *table) mergeSpills(s *model.Schema, tempDir string, orec *obs.Recorder) (*core.Table, error) {
	if err := t.writer.Close(); err != nil {
		return nil, err
	}
	t.writer = nil
	sorted := t.spillPath + ".sorted"
	defer os.Remove(sorted)
	less := func(a, b *model.Record) bool {
		for i := range a.Dims {
			if a.Dims[i] != b.Dims[i] {
				return a.Dims[i] < b.Dims[i]
			}
		}
		return false
	}
	if _, err := storage.SortFile(t.spillPath, sorted, less, storage.SortOptions{TempDir: tempDir, Recorder: orec, Guard: t.guard}); err != nil {
		return nil, fmt.Errorf("singlescan: sort spill: %w", err)
	}
	r, err := storage.OpenGuarded(sorted, t.guard)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	tbl := core.NewTable(s, t.m.Gran)
	width := t.m.Codec.Width()
	// The emptied column accumulates the current key: its first
	// generation is restored into cell 0, later ones merge into it.
	var (
		curKey   model.Key
		genState []float64
		haveGen  bool
		haveKey  bool
	)
	flushGen := func() error {
		if !haveGen {
			return nil
		}
		var err error
		if t.col.Len() == 0 {
			_, err = t.col.Restore(genState)
		} else {
			err = t.col.Merge(0, genState)
		}
		genState = genState[:0]
		haveGen = false
		return err
	}
	flushKey := func() error {
		if !haveKey {
			return nil
		}
		if err := flushGen(); err != nil {
			return err
		}
		tbl.Rows[curKey] = t.col.Final(0)
		t.col.Reset()
		haveKey = false
		return nil
	}
	var rec model.Record
	lastGen := int64(-1)
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(rec.Dims) < width+2 {
			return nil, fmt.Errorf("singlescan: malformed spill row: %d codes, want %d", len(rec.Dims), width+2)
		}
		k, err := t.m.Codec.FromCodesChecked(rec.Dims[:width])
		if err != nil {
			return nil, fmt.Errorf("singlescan: malformed spill row: %w", err)
		}
		gen := rec.Dims[width]
		if !haveKey || k != curKey {
			if err := flushKey(); err != nil {
				return nil, err
			}
			curKey, haveKey, lastGen = k, true, -1
		}
		if gen != lastGen {
			if err := flushGen(); err != nil {
				return nil, err
			}
			lastGen = gen
		}
		haveGen = true
		if rec.Dims[width+1] >= 0 { // -1 marks an empty serialized state
			genState = append(genState, rec.Ms[0])
		}
	}
	if err := flushKey(); err != nil {
		return nil, err
	}
	return tbl, nil
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			out = append(out, r)
		} else {
			out = append(out, '_')
		}
	}
	return string(out)
}
