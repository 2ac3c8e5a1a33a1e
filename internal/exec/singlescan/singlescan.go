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
//
// The scan is a vectorised hash aggregation: rows are taken a 512-row
// morsel at a time and, inside a morsel, one table at a time, through
// cellmap.InsertBatch and the aggregate column's bulk operations.
// DESIGN.md §hot-path owns the description of that loop and of the
// dense roll-up source phase 2 reads.
package singlescan

import (
	"encoding/binary"
	"fmt"
	"os"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/cellmap"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/storage"
)

// Options configures a run.
type Options struct {
	scan.EngineOptions
	// MemoryBudget caps the estimated bytes of live basic-measure hash
	// tables; 0 means unlimited. Exceeding it triggers spilling.
	MemoryBudget int64
}

// table is the in-flight state of one basic measure: an open-addressing
// cell table over encoded region keys plus the measure's aggregate
// column, indexed by the table's dense cell ids.
type table struct {
	m   *core.Measure
	tab *cellmap.Table
	col *agg.Column
	// Cell key recipe: for each non-ALL dimension (schema order), the
	// morsel code column holding its codes at the measure's level. The
	// produced bytes are identical to m.Codec.FromBase.
	cols []int
	// cellBytes is what a new cell adds to bytes: its key, its aggregate
	// in the initial state, and 16 of table overhead.
	cellBytes int64
	bytes     int64
	// keys is the frozen key arena, a string per page, once the scan is
	// over and the table was never spilled — what the result map's keys
	// are cut from, and what phase 2 reads roll-up sources off.
	keys []string
	// spill bookkeeping
	spillPath  string
	spillGen   int64
	writer     *storage.Writer
	spillBytes int64 // bytes written to the spill file
	opts       *scan.EngineOptions
	// ns holds the node's tallies (plain fields, returned in the run's
	// stats); live is its currently live cells.
	ns   obs.NodeStats
	live int64
}

// morselRows is how many rows the scan takes through one table before
// moving to the next: enough keys per cellmap.InsertBatch for its
// cache misses to overlap, few enough that a morsel's code columns, keys
// and ids stay in L1 beside the table being probed (EXPERIMENTS.md has
// the measurement). It is also the cancellation stride.
const morselRows = 512

// morsel is the scan loop's working set, shared by every table: the
// current rows' generalized codes in columns, and the buffers one
// table's pass over them fills.
type morsel struct {
	// codes holds a column per distinct (dimension, level) pair the basic
	// measures key on.
	codes *scan.CodeCols
	all   []int32 // 0..morselRows-1: an unfiltered table's selection
	sel   []int32 // a filtered table's selection
	keys  []byte  // the selected rows' packed cell keys
	ids   []int32 // ... their cell ids
	vals  []float64
	zeros []float64    // the input of a measure that reads no fact measure
	rec   model.Record // one decoded row, for filters
}

func newMorsel(s *model.Schema) *morsel {
	mo := &morsel{
		codes: scan.NewCodeCols(s, morselRows),
		all:   make([]int32, morselRows),
		sel:   make([]int32, 0, morselRows),
		ids:   make([]int32, morselRows),
		vals:  make([]float64, morselRows),
		zeros: make([]float64, morselRows),
		rec:   model.Record{Dims: make([]int64, s.NumDims()), Ms: make([]float64, s.NumMeasures())},
	}
	for i := range mo.all {
		mo.all[i] = int32(i)
	}
	return mo
}

func newTable(c *core.Compiled, m *core.Measure, mo *morsel, opts *scan.EngineOptions) *table {
	t := &table{m: m, tab: cellmap.New(m.Codec.KeyBytes()), col: m.Agg.NewColumn(), opts: opts, ns: obs.NodeStats{Node: m.Name}}
	for d := 0; d < c.Schema.NumDims(); d++ {
		if m.Gran[d] != c.Schema.Dim(d).ALL() {
			t.cols = append(t.cols, mo.codes.Add(d, m.Gran[d]))
		}
	}
	t.cellBytes = int64(t.tab.KeyLen()+m.Agg.New().Bytes()) + 16
	if n := morselRows * t.tab.KeyLen(); n > len(mo.keys) {
		mo.keys = make([]byte, n) // room for the widest table's morsel
	}
	return t
}

// absorb takes the morsel's rows through the table: select, encode the
// keys from the code columns, probe them as one batch, add the new
// cells, update every cell in row order. It returns how many cells it
// created and by how much the table's bytes grew.
func (t *table) absorb(mo *morsel, rows []scan.Record, numDims int) (created, grew int64) {
	m := t.m
	t.ns.RecordsIn += int64(len(rows))
	sel := mo.all[:len(rows)]
	if m.Filter != nil {
		sel = mo.sel[:0]
		for r, row := range rows {
			row.DecodeInto(mo.rec.Dims, mo.rec.Ms)
			if m.Filter.Eval(mo.rec.Dims, mo.rec.Ms) {
				sel = append(sel, int32(r))
			}
		}
	}
	kl := t.tab.KeyLen()
	keys, ids := mo.keys[:len(sel)*kl], mo.ids[:len(sel)]
	for j, p := range t.cols {
		codes := mo.codes.Col(p)
		for i, r := range sel {
			binary.BigEndian.PutUint64(keys[i*kl+8*j:], uint64(codes[r])^(1<<63))
		}
	}
	before := t.tab.Len()
	t.tab.InsertBatch(keys, ids)
	created = int64(t.tab.Len() - before)
	t.col.AppendN(int(created))
	vals := mo.zeros
	if m.FactMeasure >= 0 {
		vals = mo.vals
		for i, r := range sel {
			vals[i] = rows[r].Measure(numDims, m.FactMeasure)
		}
	}
	grew = created*t.cellBytes + int64(t.col.UpdateAll(ids, vals))
	t.bytes += grew
	t.ns.CellsCreated += created
	if t.live += created; t.live > t.ns.LiveCellsHWM {
		t.ns.LiveCellsHWM = t.live
	}
	return created, grew
}

// Run evaluates the workflow over the input.
func Run(c *core.Compiled, in scan.Input, opts Options) (*scan.Result, error) {
	opts.EngineOptions = opts.WithDefaults()
	orec := opts.Recorder
	bsrc, err := opts.Open(in)
	if err != nil {
		return nil, fmt.Errorf("singlescan: %w", err)
	}

	var stats obs.EngineStats
	var basics []*table
	var totalBytes, liveCells int64
	mo := newMorsel(c.Schema)
	for _, m := range c.Measures {
		if m.Kind == core.KindBasic {
			basics = append(basics, newTable(c, m, mo, &opts.EngineOptions))
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
	// byte-slice batches and are taken a morsel at a time and, inside a
	// morsel, a table at a time: every table's probes, cell creations
	// and aggregate updates run as one batch each (DESIGN.md §hot-path).
	// The morsel is the guard stride too.
	numDims := c.Schema.NumDims()
	err = opts.ScanPhase(bsrc, morselRows, func() int64 { return liveCells }, func(rows []scan.Record) error {
		mo.codes.Load(rows)
		for _, t := range basics {
			created, grew := t.absorb(mo, rows, numDims)
			stats.CellsCreated += created
			if liveCells += created; liveCells > stats.PeakCells {
				stats.PeakCells = liveCells
			}
			if totalBytes += grew; totalBytes > stats.PeakBytes {
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
				n, err := victim.spill()
				if err != nil {
					return err
				}
				stats.Spills++
				stats.SpilledEntries += n
				liveCells -= n
				victim.live -= n
				totalBytes -= victim.bytes
				victim.bytes = 0
			}
		}
		return nil
	}, &stats)
	// The scan is over: close the input now, so that its read buffer and
	// file are not held through the result build and phase 2.
	bsrc.Close()
	if err != nil {
		return nil, err
	}

	tables := make([]*core.Table, len(c.Measures))
	// A basic that never spilled is still a key arena beside its column,
	// which an order-insensitive roll-up of it reads front to back
	// instead of the map built from it.
	cells := make([]func(yield func(model.Key, float64)), len(c.Measures))
	// build makes the results of the basics that spilled, or of those
	// that did not, under one span that adds to the scan time.
	build := func(spilled bool, name string) error {
		var span *obs.Span
		defer func() {
			span.End()
			stats.ScanTime += span.Duration()
		}()
		for _, t := range basics {
			if (t.spillPath != "") != spilled {
				continue
			}
			if err := opts.Guard.Err(); err != nil {
				return err
			}
			if span == nil {
				span = orec.Start(name)
			}
			var tbl *core.Table
			if !spilled {
				tbl = t.frozen(c.Schema)
			} else {
				// Spill the in-memory remainder so everything is on disk,
				// then sort and merge.
				if _, err := t.spill(); err != nil {
					return err
				}
				stats.Spills++
				var err error
				if tbl, err = t.mergeSpills(c.Schema, opts.MemoryBudget, &stats); err != nil {
					return err
				}
			}
			stats.CellsFinalized += int64(len(tbl.Rows))
			t.ns.CellsFinalized = int64(len(tbl.Rows))
			if !t.m.Hidden {
				t.ns.RecordsOut = t.ns.CellsFinalized
				if err := opts.Guard.NoteResultRows(int64(len(tbl.Rows))); err != nil {
					return err
				}
			}
			i, err := c.Index(t.m.Name)
			if err != nil {
				return err
			}
			tables[i] = tbl
			if !spilled {
				cells[i] = t.eachCell
			}
		}
		return nil
	}
	// The tables that never spilled are cut from their frozen arenas;
	// the ones that did merge their spilled partial states back, an
	// external sort and merge.
	if err := build(false, obs.SpanFinalize); err != nil {
		return nil, err
	}
	if err := build(true, obs.SpanSpill); err != nil {
		return nil, err
	}

	// Phase 2: composite measures in topological order (the workflow's
	// compiled order).
	outputs, err := opts.Composites(c, tables, cells, &stats)
	if err != nil {
		return nil, fmt.Errorf("singlescan: %w", err)
	}

	var peak2 int64
	for i := range tables {
		if tables[i] != nil {
			peak2 += int64(len(tables[i].Rows)) * int64(c.Measures[i].Codec.KeyBytes()+24)
		}
	}
	if peak2 > stats.PeakBytes {
		stats.PeakBytes = peak2
	}

	for _, t := range basics {
		stats.SpillBytes += t.spillBytes
		scan.AddCellStats(&stats, t.tab)
		stats.Nodes = append(stats.Nodes, t.ns)
	}
	return &scan.Result{Tables: outputs, Stats: stats}, nil
}

// frozen freezes a table that never spilled and builds its result map
// exact-size: one growth-free insert per cell, in insertion order, each
// key cut from the frozen pages, so the map costs one allocation and
// not one per cell.
func (t *table) frozen(s *model.Schema) *core.Table {
	tbl := core.NewTable(s, t.m.Gran)
	t.keys = t.tab.Freeze()
	tbl.Rows = make(map[model.Key]float64, t.tab.Len())
	t.eachCell(func(k model.Key, v float64) { tbl.Rows[k] = v })
	return tbl
}

// eachCell yields the table's cells in cell-id order: key and final
// aggregate. Valid once the scan is over, on a table that never spilled.
func (t *table) eachCell(yield func(model.Key, float64)) {
	kl := t.tab.KeyLen()
	for p, page := range t.keys {
		for j := range min(t.tab.Len()-p*cellmap.PageKeys, cellmap.PageKeys) {
			yield(model.Key(page[j*kl:j*kl+kl]), t.col.Final(int32(p*cellmap.PageKeys+j)))
		}
	}
}

// spill writes every live entry's aggregator state to the measure's
// spill file as fixed-width rows (key codes..., generation, position)
// -> state value, then clears the hash table.
func (t *table) spill() (int64, error) {
	if t.writer == nil {
		t.spillPath = t.opts.TempPath("spill")
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
	if err := t.opts.Guard.NoteSpill(t.spillBytes - bytesBefore); err != nil {
		return n, err
	}
	return n, nil
}

// mergeChunk is how many spill rows the merge's sort holds at once under
// the query's memory budget: a row costs its disk bytes (the codes, the
// state value, a checksum) and one 8-byte order column per code. The
// floor of 1024 rows, the external sort's own, keeps a tiny budget from
// fanning the merge out into a run file every few rows.
func mergeChunk(budget int64, width int) int {
	cols := int64(width + 2)
	row := 8*(cols+1) + 4 + 8*cols
	return int(max(budget/row, 1024))
}

// mergeSpills sorts the spill file by all of its columns — (key codes,
// generation, position), ties in file order — and restores and merges
// the per-generation states per key straight from the sorted stream.
// It adds the sort's and the merge's share of the run's stats to st.
func (t *table) mergeSpills(s *model.Schema, budget int64, st *obs.EngineStats) (*core.Table, error) {
	if err := t.writer.Close(); err != nil {
		return nil, err
	}
	t.writer = nil
	width := t.m.Codec.Width()
	so := *t.opts
	so.ChunkRecords = mergeChunk(budget, width)
	sorted, err := scan.SortByKey(scan.FileInput(t.spillPath), nil, nil, nil, 1, so)
	if err != nil {
		return nil, fmt.Errorf("singlescan: sort spill: %w", err)
	}
	defer sorted.Close()
	src, err := sorted.Open(0)
	if err != nil {
		return nil, fmt.Errorf("singlescan: sort spill: %w", err)
	}
	defer src.Close()

	tbl := core.NewTable(s, t.m.Gran)
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
	codes := make([]int64, width)
	rowBytes := 8 * (width + 3)
	lastGen := int64(-1)
	for {
		batch, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			if len(row) != rowBytes {
				return nil, fmt.Errorf("singlescan: malformed spill row: %d bytes, want %d", len(row), rowBytes)
			}
			for i := range codes {
				codes[i] = row.Dim(i)
			}
			k, err := t.m.Codec.FromCodesChecked(codes)
			if err != nil {
				return nil, fmt.Errorf("singlescan: malformed spill row: %w", err)
			}
			gen := row.Dim(width)
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
			if row.Dim(width+1) >= 0 { // -1 marks an empty serialized state
				genState = append(genState, row.Measure(width+2, 0))
			}
		}
	}
	if err := flushKey(); err != nil {
		return nil, err
	}
	st.Add(sorted.EngineStats())
	st.Add(src.EngineStats())
	return tbl, nil
}
