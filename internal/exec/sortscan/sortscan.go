// Package sortscan implements the paper's one-pass sort/scan algorithm
// (Section 5.3, Tables 7 and 8): the dataset is externally sorted by a
// chosen sort key and scanned once; every measure node maintains a hash
// table of live cells plus a watermark per incoming update stream, and
// finalizes ("flushes") cells as soon as no stream can update them
// again. Finalized entries propagate down the computation graph as
// update streams, transformed per match condition, so composite
// measures complete in the same pass with a bounded memory footprint.
//
// Finalization uses the per-arc comparable keys and conservative
// watermark shifts computed by the plan package (the order/slack
// algorithm of Table 6). A cell is finalized when its projection onto
// every arc's comparable key is strictly below that arc's shifted
// watermark — the watermark-array minimum of Table 8, evaluated per
// arc because streams may have incomparable orders.
//
// The hot path runs on the scan package's batched record pipeline:
// fact rows arrive as zero-copy byte views in multi-megabyte batches,
// each record's mapped (dimension, level) codes are computed once and
// shared across all basic nodes, and live cells sit in an
// open-addressing cellmap.Table with their state in flat slabs beside
// it (an agg.Column, base flags, combine operands) instead of a Go map
// of heap cells. A flush batch is sorted as uint64 code columns by the
// scan package's index sorter and lands in the output table through a
// per-batch emission log, so a finalized cell costs no heap object and
// no string; DESIGN.md §hot-path owns the layout. Guard checks run per
// batch, not per row.
package sortscan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/cellmap"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/plan"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// Options configures a run.
type Options struct {
	// SortKey orders the pass. Use the opt package to choose one that
	// minimizes the estimated footprint.
	SortKey model.SortKey
	// TempDir receives external-sort run files, which exist only when the
	// input exceeds one sort chunk; empty uses the fact file's directory.
	TempDir string
	// ChunkRecords is how many records the external sort holds in memory
	// at a time (0 = default).
	ChunkRecords int
	// ReadBatchBytes is the chunk size of the batched fact reads
	// (0 = scan.DefaultBatchBytes).
	ReadBatchBytes int
	// Stats supplies cardinality estimates for the plan's footprint
	// numbers (informational).
	Stats *plan.Stats
	// DisableEarlyFlush turns off watermark-based finalization during
	// the scan, so everything flushes only at the end (ablation knob:
	// it isolates the memory benefit of the paper's early flushing).
	DisableEarlyFlush bool
	// SortWorkers, when above 1, sorts and writes run files on that many
	// goroutines during the sort phase.
	SortWorkers int
	// Recorder, if non-nil, receives the run's phase spans
	// (sort/runs, scan, finalize) and the standard engine
	// metrics. Nil still produces a full Stats (a private recorder is
	// used); hot loops never touch the recorder either way.
	Recorder *obs.Recorder
	// Guard, if non-nil, makes the run cooperatively cancelable and
	// enforces resource budgets (live cells, result rows, spill bytes).
	// Budgets are checked at batch and flush boundaries, so a small
	// overshoot within one batch is possible by design.
	Guard *qguard.Guard
}

// Stats reports a run's cost breakdown — the data behind the paper's
// Figure 6(e) sort-vs-scan comparison — and memory behaviour. It is a
// fixed-shape view over the measurements the run's obs.Recorder
// exports: the timing fields are span durations and the remaining
// fields mirror the standard metric names.
type Stats struct {
	Records      int64
	SortTime     time.Duration
	ScanTime     time.Duration
	SortRuns     int
	PeakCells    int64 // max simultaneously live hash entries, all nodes
	PeakBytes    int64 // estimated bytes at that moment
	FlushBatches int64
}

// Result holds the computed measure tables (outputs only) and stats.
type Result struct {
	Tables map[string]*core.Table
	Stats  Stats
	Plan   *plan.Plan
}

// arcState tracks one incoming stream's watermark as a vector of
// shifted comparable-key codes (compared lexicographically, which is
// exactly the byte order of the encoded comparable key).
type arcState struct {
	pl plan.Arc
	// cellParts projects this node's cell keys onto pl.CmpKey (the
	// finality test); srcParts projects the producer's entry keys onto it
	// (the watermark a delivery carries; nil on the fact arc).
	cellParts []keyPart
	srcParts  []keyPart
	th        []int64 // shifted projection of the last update, len(pl.CmpKey)
	seen      bool
	advanced  bool
	// advancedCoarse marks a change in the leading comparable-key
	// component. The scan loop triggers finalization only on coarse
	// advances — batching flushes the way the paper's examples do
	// ("entries are finalized when the day switches") instead of
	// re-scanning the hash table on every record.
	advancedCoarse bool
	// Per-arc tallies (plain fields, published at end of run):
	// advances counts watermark advances on this arc; heldBack counts
	// cell-finalization checks this arc's lagging watermark deferred.
	advances int64
	heldBack int64
}

// node is the runtime state of one measure.
type node struct {
	idx  int
	m    *core.Measure
	pl   *plan.Node
	arcs []arcState
	// Live cells: open-addressing table over encoded keys. Entry i of tab
	// owns element i of each state slab the measure's kind uses; a flush
	// compacts table and slabs to the survivors together (no tombstones).
	tab *cellmap.Table
	// col is the aggregate state of basic, roll-up and sibling cells.
	col *agg.Column
	// inBase marks cells the base (cell-providing) stream confirmed, for
	// the kinds other streams can also create cells of: fromparent,
	// sibling and combine (tracksBase). An unconfirmed cell was never a
	// region of the measure and flushes without a row.
	tracksBase bool
	inBase     []bool
	// Combine operands, stride len(m.Sources) per cell: each source's
	// delivered value and whether it delivered one.
	vals    []float64
	present []bool
	// Cell fast path: consecutive sorted records (basic nodes) and
	// consecutive entries of a sorted flush batch (dependents) usually
	// land on the same cell, so its dense index is cached. A basic node
	// trusts the cache until a cell code changes (cellDirty, fed by the
	// engine's shared per-record change flags; it stays sticky across
	// filtered records, which skip the cache update); a dependent
	// compares the key it assembled with the cached cell's.
	lastCellIdx int32
	cellDirty   bool
	// keyBuf assembles the key about to be probed: a record's cell key, a
	// roll-up target, a window-shifted sibling key.
	keyBuf []byte
	// wmIdx/cellIdx index the engine's shared per-record code table:
	// wmIdx[j] locates arc 0's CmpKey[j] code, cellIdx[t] the t-th
	// non-ALL granularity component's code.
	wmIdx   []int
	cellIdx []int
	// appendOnly marks basic nodes whose cell keys are contiguous under
	// the scan's full tiebreak order (contiguousCells): a changed key is
	// provably new, so misses skip the hash probe (cellmap.Append).
	appendOnly bool
	// outParts projects cell keys onto pl.OutOrder, the leading sort
	// columns of a flush batch.
	outParts []keyPart
	// log is the emission log behind the public output table: one chunk
	// per flush batch, in flush order. materialize() builds out.Rows from
	// it once, with exact size, instead of paying incremental map growth
	// per row.
	log []logChunk
	// srcArc maps "source position" (index into m.Sources) to the arc
	// index; baseArc is the base stream's arc index (-1 if none).
	srcArc  []int
	baseArc int
	// fromparent staging: parent values keyed by the parent's key, and
	// the one-cell column that aggregates a cell's parent value.
	parentVals map[model.Key]float64
	parentCol  *agg.Column
	out        *core.Table
	// dependents: (node index, role) pairs in node order; role is the
	// source position, or -1 for base.
	deps []depEdge
	// Per-node tallies (plain fields, published at end of run): the
	// node-level breakdown of the engine's global counters.
	nRecordsIn  int64 // fact records or upstream entries delivered
	nRecordsOut int64 // rows emitted into the output table
	nCreated    int64 // cells created
	nFinalized  int64 // cells flushed
	nFlushes    int64 // flush batches
	nLive       int64 // currently live cells
	nLiveHWM    int64 // peak live cells
}

func (n *node) noteLive(delta int64) {
	n.nLive += delta
	if n.nLive > n.nLiveHWM {
		n.nLiveHWM = n.nLive
	}
}

// logChunk is one flush batch's emitted rows: the batch's keys, in
// emission order, as one string of fixed-width keys — the same string
// the batch's delivery and Emit keys are sliced from, so logging a row
// copies nothing — and one value per key. A chunk holds two pointers
// however many rows it carries, so the log is nothing for the collector
// to walk.
type logChunk struct {
	keys string
	vals []float64
}

// buildRows builds the row map of one measure from its emission logs —
// a run's one, or every shard's — sized exactly from their lengths, and
// returns it with the number of rows logged. Logs are filled in order
// and each in emission order, so a key logged twice keeps the map's
// last-wins semantics (and leaves the map shorter than the count).
func buildRows(kw int, logs ...[]logChunk) (map[model.Key]float64, int) {
	logged := 0
	for _, log := range logs {
		for _, c := range log {
			logged += len(c.vals)
		}
	}
	rows := make(map[model.Key]float64, logged)
	for _, log := range logs {
		for _, c := range log {
			for j, v := range c.vals {
				rows[model.Key(c.keys[j*kw:j*kw+kw])] = v
			}
		}
	}
	return rows, logged
}

// materialize moves the emission log into the node's public output
// table as one exact-size map build.
func (n *node) materialize() {
	n.out.Rows, _ = buildRows(n.tab.KeyLen(), n.log)
	n.log = nil
}

// contiguousCells reports whether scanning records in the full sorted
// order — sort key parts, then base coordinates ascending (the order
// scan.SortByKey produces) — visits gran's cell keys contiguously:
// once the cell key changes it never returns to an earlier value.
//
// The proof walks the effective comparator sequence. Take two records
// r < u of one cell class and any t between them; let position i be
// the first comparator on which the three disagree. A comparator that
// is a coarsening of a cell part (same dimension, level ≥ the part's)
// is constant within the class, so it cannot be position i. At any
// other position, t's comparator value is squeezed between r's and
// u's; a cell part that is a generalization of that comparator is then
// squeezed too (Up is monotone) and must equal the class's, and a part
// determined by an earlier comparator already matched. So the class
// contains t — i.e. it is contiguous — provided that at every
// position, each part not yet determined by an earlier comparator is a
// generalization of the current one. One comparator carries one
// dimension, so at most one part may still be undetermined when such a
// position arrives.
func contiguousCells(sch *model.Schema, key model.SortKey, gran model.Gran) bool {
	numDims := len(gran)
	part := make([]model.Level, numDims) // cell part level per dim; -1 = ALL
	remaining := 0
	for d := 0; d < numDims; d++ {
		part[d] = -1
		if gran[d] != sch.Dim(d).ALL() {
			part[d] = gran[d]
			remaining++
		}
	}
	covered := make([]bool, numDims)
	comps := append([]model.SortPart{}, key...)
	for _, p := range key {
		if p.Lvl == 0 {
			covered[p.Dim] = true
		}
	}
	for d := 0; d < numDims; d++ {
		if !covered[d] {
			comps = append(comps, model.SortPart{Dim: d, Lvl: 0})
		}
	}
	det := make([]bool, numDims)
	for _, cp := range comps {
		if remaining == 0 {
			return true
		}
		g := part[cp.Dim]
		if g >= 0 && g <= cp.Lvl {
			// Comparator is a coarsening of the cell part: constant
			// within a class, never a first difference. Equal levels
			// also determine the part for later positions.
			if cp.Lvl <= g && !det[cp.Dim] {
				det[cp.Dim] = true
				remaining--
			}
			continue
		}
		// Possible first difference: every still-undetermined part must
		// be a generalization of this comparator.
		if remaining > 1 {
			return false
		}
		ud := -1
		for d := 0; d < numDims; d++ {
			if part[d] >= 0 && !det[d] {
				ud = d
				break
			}
		}
		if ud != cp.Dim || cp.Lvl > part[ud] {
			return false
		}
		det[ud] = true
		remaining--
	}
	return remaining == 0
}

type depEdge struct {
	node int
	role int // source position in the dependent's Sources, -1 = base
}

type engine struct {
	c            *core.Compiled
	pl           *plan.Plan
	nodes        []*node
	stats        Stats
	live         int64
	noEarlyFlush bool
	emit         EmitFunc
	rec          *obs.Recorder
	guard        *qguard.Guard
	// Shared per-record code table: every distinct (dimension, level)
	// pair any basic node maps records through — watermark components
	// and cell-granularity components alike — is computed exactly once
	// per record into cpVals, and nodes index into it.
	cpParts []model.SortPart
	cpDims  []*model.Dimension
	cpVals  []int64
	// cpChanged[j] reports whether cpVals[j] differs from the previous
	// record's value — the shared record-to-record delta every node's
	// watermark and cell fast paths key off.
	cpChanged []bool
	// frec is the decoded-record scratch for basic-measure filters;
	// it is filled once per record only when a filter exists. entryDims
	// and entryMs are its counterpart for filters on delivered entries
	// (a filter is a func value, so a local would escape per entry).
	needRec     bool
	frec        model.Record
	entryDims   []int64
	entryMs     [1]float64
	numDims     int
	numMeasures int
	// Flush scratch, shared by all nodes: a batch is collected, sorted,
	// turned into its key string and values, and the node compacted,
	// before any entry is delivered, so nothing here is live across the
	// recursion into dependents.
	keepIdx    []int32  // surviving cells, ascending
	keepKeys   []byte   // their keys, while the table is rebuilt
	flushCells []int32  // batch row -> cell index
	sortCols   []uint64 // batch row -> output-order codes, then key words
	order      []int32  // emission order: a permutation of batch rows
	flushKeys  []byte   // the batch's keys in emission order
	sorter     scan.IdxSorter
	// Per-record tallies stay in plain fields (the scan loop never
	// touches the recorder); publish() flushes them at end of run.
	created   int64 // cells created
	finalized int64 // cells flushed
	wmAdv     int64 // watermark advances across all arcs
}

// publish flushes the engine's tallies into its recorder under the
// standard metric names, plus one NodeStats per measure node (the
// per-operator breakdown behind EXPLAIN ANALYZE). It also registers
// the spill metrics so every engine exports the same vocabulary even
// when nothing spilled.
func (e *engine) publish() {
	rec := e.rec
	rec.Counter(obs.MRecordsScanned).Add(e.stats.Records)
	rec.Counter(obs.MCellsCreated).Add(e.created)
	rec.Counter(obs.MCellsFinalized).Add(e.finalized)
	rec.Counter(obs.MFlushBatches).Add(e.stats.FlushBatches)
	rec.Counter(obs.MWatermarkAdvances).Add(e.wmAdv)
	rec.Counter(obs.MSpillEvents)
	rec.Counter(obs.MSpillBytes)
	rec.Gauge(obs.GLiveCellsHWM).SetMax(e.stats.PeakCells)
	rec.Gauge(obs.GHashBytesHWM).SetMax(e.stats.PeakBytes)
	// Cell-table probe/arena behavior, aggregated across nodes from the
	// tables' plain-field tallies (one Stats read per node, end of run).
	var probeHWM, grows, arena int64
	for _, n := range e.nodes {
		ts := n.tab.Stats()
		if ts.ProbeHWM > probeHWM {
			probeHWM = ts.ProbeHWM
		}
		grows += ts.Grows
		arena += ts.ArenaBytesHWM
	}
	rec.Counter(obs.MCellTableGrows).Add(grows)
	rec.Gauge(obs.GCellProbeHWM).SetMax(probeHWM)
	rec.Gauge(obs.GCellArenaBytes).SetMax(arena)
	for _, n := range e.nodes {
		ns := obs.NodeStats{
			Node:           n.m.Name,
			RecordsIn:      n.nRecordsIn,
			RecordsOut:     n.nRecordsOut,
			CellsCreated:   n.nCreated,
			CellsFinalized: n.nFinalized,
			FlushBatches:   n.nFlushes,
			LiveCellsHWM:   n.nLiveHWM,
			EstCells:       n.pl.EstCells,
		}
		for i := range n.arcs {
			a := &n.arcs[i]
			ns.Arcs = append(ns.Arcs, obs.ArcStats{
				Label:    e.pl.ArcLabel(&a.pl),
				Advances: a.advances,
				HeldBack: a.heldBack,
			})
		}
		rec.MergeNodeStats(ns)
	}
}

// Run sorts the fact file by the sort key and evaluates the workflow
// in one streaming pass. The sort hands its rows over as a stream
// (scan.SortByKey): no sorted copy of the file is written.
func Run(c *core.Compiled, factPath string, opts Options) (*Result, error) {
	rec := opts.Recorder
	if rec == nil {
		rec = obs.New() // private recorder so Stats stays complete
	}
	pl, err := plan.Build(c, opts.SortKey, opts.Stats)
	if err != nil {
		return nil, err
	}
	sortSpan := rec.Start(obs.SpanSort)
	defer sortSpan.End()
	sortSpan.SetAttr("key", pl.SortKey.String(c.Schema))
	sorted, err := scan.SortByKey(factPath, c.Schema, pl.SortKey, nil, 1, scan.SortOptions{
		ChunkRecords: opts.ChunkRecords, TempDir: opts.TempDir,
		Workers: opts.SortWorkers, BatchBytes: opts.ReadBatchBytes,
		Recorder: rec.At(sortSpan), Guard: opts.Guard,
	})
	if err != nil {
		return nil, fmt.Errorf("sortscan: sort: %w", err)
	}
	defer sorted.Close()
	src, err := sorted.Open(0)
	if err != nil {
		return nil, fmt.Errorf("sortscan: sort: %w", err)
	}
	defer src.Close()
	sortSpan.SetAttr("runs", fmt.Sprint(sorted.Stats().Runs))
	sortSpan.End()
	// Rows sorted by this run carry the full base-coordinate tiebreak
	// order, which unlocks the append-only cell-table path.
	res, err := runSorted(c, pl, src, opts.DisableEarlyFlush, true, rec, opts.Guard)
	if err != nil {
		return nil, err
	}
	res.Stats.SortTime = sortSpan.Duration()
	res.Stats.SortRuns = sorted.Stats().Runs
	return res, nil
}

// RunSorted evaluates the workflow over a source already ordered by
// the plan's sort key. An optional recorder receives phase spans and
// engine metrics.
func RunSorted(c *core.Compiled, pl *plan.Plan, src storage.Source, recorder ...*obs.Recorder) (*Result, error) {
	var rec *obs.Recorder
	if len(recorder) > 0 {
		rec = recorder[0]
	}
	return runSorted(c, pl, scan.NewBatcher(src, c.Schema.NumDims(), c.Schema.NumMeasures()), false, false, rec, nil)
}

// RunSortedGuarded is RunSorted under a query guard (cancellation and
// resource budgets).
func RunSortedGuarded(c *core.Compiled, pl *plan.Plan, src storage.Source, g *qguard.Guard, rec *obs.Recorder) (*Result, error) {
	return runSorted(c, pl, scan.NewBatcher(src, c.Schema.NumDims(), c.Schema.NumMeasures()), false, false, rec, g)
}

func runSorted(c *core.Compiled, pl *plan.Plan, src scan.BatchSource, disableEarlyFlush, fullOrder bool, obsRec *obs.Recorder, guard *qguard.Guard) (*Result, error) {
	if obsRec == nil {
		obsRec = obs.New()
	}
	e, err := runSortedStates(c, pl, src, disableEarlyFlush, fullOrder, obsRec, guard, nil)
	if err != nil {
		return nil, err
	}
	return e.result(), nil
}

// runSortedStates is the engine's core loop; it returns the engine with
// every output's emission log complete and not yet materialized. When
// stateIdx is non-nil, the marked nodes (leaf basics whose regions span
// shard units) are never finalized: their cells stay live through the
// whole scan and are left in the node's key arena and aggregate column
// for a cross-shard merge by the sharded driver. All other nodes flush
// normally. fullOrder asserts the source carries the full tiebreak
// order (sort key, then base coordinates ascending) — the order this
// package's own sort produces — not just the plan key.
func runSortedStates(c *core.Compiled, pl *plan.Plan, src scan.BatchSource, disableEarlyFlush, fullOrder bool, obsRec *obs.Recorder, guard *qguard.Guard, stateIdx []bool) (*engine, error) {
	e := newEngine(c, pl, disableEarlyFlush, obsRec)
	e.guard = guard
	if fullOrder {
		// Under the full tiebreak order, a node whose cell keys are
		// provably contiguous in the scan never revisits a retired key:
		// a changed key is always new, so its table skips hash probes
		// entirely (cellmap.Append).
		for _, n := range e.nodes {
			if n.m.Kind == core.KindBasic && contiguousCells(c.Schema, pl.SortKey, n.m.Gran) {
				n.appendOnly = true
			}
		}
	}
	scanSpan := obsRec.Start(obs.SpanScan)
	if tc, ok := src.(interface{ TotalRecords() int64 }); ok {
		scanSpan.SetTotal(tc.TotalRecords())
	}
	var basics []*node
	for _, n := range e.nodes {
		if n.m.Kind == core.KindBasic {
			basics = append(basics, n)
		}
	}
	for {
		batch, err := src.NextBatch()
		if err != nil {
			return nil, fmt.Errorf("sortscan: %w", err)
		}
		if batch == nil {
			break
		}
		// Cooperative cancellation + live-cell guardrail, once per
		// batch, plus a cheap in-batch stride so budgets still trip
		// promptly when a whole input fits in one batch. The stride
		// test is a bitmask branch; the guard itself is off the
		// per-row path.
		scanSpan.SetDone(e.stats.Records)
		if err := e.checkGuard(); err != nil {
			return nil, err
		}
		for _, row := range batch {
			e.stats.Records++
			if e.stats.Records&255 == 0 {
				if err := e.checkGuard(); err != nil {
					return nil, err
				}
			}
			e.computeCodes(row)
			for _, n := range basics {
				e.scanRecord(n, row)
			}
			if e.noEarlyFlush {
				continue
			}
			for _, n := range basics {
				if n.arcs[0].advancedCoarse {
					n.arcs[0].advancedCoarse = false
					if stateIdx != nil && stateIdx[n.idx] {
						continue
					}
					if err := e.finalizeNode(n, false); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	scanSpan.SetDone(e.stats.Records)
	scanSpan.SetAttr("records", fmt.Sprint(e.stats.Records))
	scanSpan.End()
	scan.PublishReadStats(obsRec, src)
	// End of scan: flush everything in topological order (Table 7's
	// final "flush the hash tables of all measures"), except the
	// state-extraction nodes, whose cells are handed back unmerged.
	finSpan := obsRec.Start(obs.SpanFinalize)
	for _, n := range e.nodes {
		if stateIdx != nil && stateIdx[n.idx] {
			continue
		}
		if err := e.finalizeNode(n, true); err != nil {
			return nil, err
		}
	}
	finSpan.End()
	e.stats.ScanTime = scanSpan.Duration() + finSpan.Duration()
	e.publish()
	return e, nil
}

// result materializes the output measures' emission logs into the
// run's public tables.
func (e *engine) result() *Result {
	res := &Result{Tables: make(map[string]*core.Table), Stats: e.stats, Plan: e.pl}
	for _, name := range e.c.Outputs() {
		i, _ := e.c.Index(name)
		e.nodes[i].materialize()
		res.Tables[name] = e.nodes[i].out
	}
	return res
}

func containsIdx(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// registerCode interns one (dimension, level) mapping in the engine's
// shared per-record code table and returns its index.
func (e *engine) registerCode(p model.SortPart) int {
	for i, q := range e.cpParts {
		if q.Dim == p.Dim && q.Lvl == p.Lvl {
			return i
		}
	}
	e.cpParts = append(e.cpParts, p)
	e.cpDims = append(e.cpDims, e.c.Schema.Dim(p.Dim))
	return len(e.cpParts) - 1
}

// computeCodes fills the shared code table for one record: each
// distinct (dimension, level) pair used by any basic node is mapped
// exactly once, no matter how many nodes consume it.
func (e *engine) computeCodes(row scan.Record) {
	for j := range e.cpParts {
		v := e.cpDims[j].Up(0, e.cpParts[j].Lvl, row.Dim(e.cpParts[j].Dim))
		e.cpChanged[j] = v != e.cpVals[j]
		e.cpVals[j] = v
	}
	if e.needRec {
		row.DecodeInto(e.frec.Dims, e.frec.Ms)
	}
}

// scanRecord feeds one fact record into a basic measure node and
// advances its fact-arc watermark. The record's mapped codes were
// already computed by computeCodes; this only compares, encodes on
// change, and updates the aggregate.
func (e *engine) scanRecord(n *node, row scan.Record) {
	m := n.m
	arc := &n.arcs[0]
	n.nRecordsIn++

	// Watermark first: it must advance even for filtered-out records.
	// computeCodes already flagged which shared codes changed since the
	// previous record, so the common no-change case is a few bool reads.
	wmChanged := !arc.seen
	for j, ci := range n.wmIdx {
		if e.cpChanged[ci] {
			wmChanged = true
			if j == 0 {
				arc.advancedCoarse = true
			}
		}
	}
	if wmChanged {
		for j, ci := range n.wmIdx {
			arc.th[j] = e.cpVals[ci] - arc.pl.Shift[j]
		}
		arc.seen = true
		arc.advanced = true
		arc.advances++
		e.wmAdv++
	}

	// cellDirty accumulates cell-code changes across records so the
	// fast path below stays exact even when filtered records skip the
	// cache update.
	for _, ci := range n.cellIdx {
		if e.cpChanged[ci] {
			n.cellDirty = true
			break
		}
	}

	if m.Filter != nil && !m.Filter.Eval(e.frec.Dims, e.frec.Ms) {
		return
	}

	// Cell fast path: reuse the previous cell when no cell-code changed
	// since it was cached; otherwise encode the key and probe the table.
	var idx int32
	if n.lastCellIdx >= 0 && !n.cellDirty {
		idx = n.lastCellIdx
	} else {
		kb := n.keyBuf[:0]
		for _, ci := range n.cellIdx {
			kb = appendOrdered(kb, e.cpVals[ci])
		}
		n.keyBuf = kb
		var created bool
		if n.appendOnly {
			// Contiguous cell keys: a changed key was never seen, so
			// skip the probe and append a fresh entry directly.
			idx, created = n.tab.Append(kb), true
		} else {
			idx, created = n.tab.Insert(kb)
		}
		if created {
			e.addCell(n)
		}
		n.lastCellIdx = idx
		n.cellDirty = false
	}
	if m.FactMeasure >= 0 {
		n.col.Update(idx, row.Measure(e.numDims, m.FactMeasure))
	} else {
		n.col.Update(idx, 0)
	}
}

// addCell appends the state of the cell tab just created: one element
// (or one stride) on each slab the node's kind uses.
func (e *engine) addCell(n *node) {
	if n.col != nil {
		n.col.Append()
	}
	if n.tracksBase {
		n.inBase = append(n.inBase, false)
	}
	if srcs := len(n.m.Sources); n.m.Kind == core.KindCombine {
		n.vals = append(n.vals, make([]float64, srcs)...)
		n.present = append(n.present, make([]bool, srcs)...)
	}
	e.created++
	e.noteLive(1)
	n.nCreated++
	n.noteLive(1)
}

// cellFor returns the dense index of the live cell with key kb,
// creating it if absent. Consecutive entries of a sorted flush batch
// usually land on one cell — every child of a region rolls up to it —
// so the last cell's key is compared before the table is probed.
func (e *engine) cellFor(n *node, kb []byte) int32 {
	if n.lastCellIdx >= 0 && bytes.Equal(kb, n.tab.KeyAt(n.lastCellIdx)) {
		return n.lastCellIdx
	}
	idx, created := n.tab.Insert(kb)
	if created {
		e.addCell(n)
	}
	n.lastCellIdx = idx
	return idx
}

// keyPart is one component of a projection of region keys onto a
// comparable key, compiled against the keys' codec: the 8-byte word of
// the key that holds the dimension's code, and the generalization from
// the key's level to the component's.
type keyPart struct {
	word     int
	dim      *model.Dimension
	from, to model.Level
}

// compileProjection compiles the projection of codec's keys onto cmp.
// Every part's dimension must be encoded in the keys.
func compileProjection(cmp model.SortKey, codec *model.KeyCodec) []keyPart {
	parts := make([]keyPart, len(cmp))
	for j, p := range cmp {
		w := codec.DimPos(p.Dim)
		if w < 0 {
			panic(fmt.Sprintf("sortscan: comparable key part on dimension %d, which is at D_ALL in the region set", p.Dim))
		}
		parts[j] = keyPart{word: w, dim: codec.Schema().Dim(p.Dim), from: codec.Gran()[p.Dim], to: p.Lvl}
	}
	return parts
}

// partCode reads the part's code out of a key in place — arena bytes or
// a model.Key alike. Code vectors compare lexicographically exactly as
// the encoded comparable keys compare bytewise.
func partCode[K ~string | ~[]byte](p *keyPart, k K) int64 {
	k = k[8*p.word : 8*p.word+8]
	code := int64((uint64(k[7]) | uint64(k[6])<<8 | uint64(k[5])<<16 | uint64(k[4])<<24 |
		uint64(k[3])<<32 | uint64(k[2])<<40 | uint64(k[1])<<48 | uint64(k[0])<<56) ^ 1<<63)
	if p.from != p.to {
		code = p.dim.Up(p.from, p.to, code)
	}
	return code
}

func appendOrdered(b []byte, code int64) []byte {
	u := uint64(code) ^ (1 << 63)
	return append(b,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

func (e *engine) noteLive(delta int64) {
	e.live += delta
	if e.live > e.stats.PeakCells {
		e.stats.PeakCells = e.live
		e.stats.PeakBytes = e.live * 64
	}
}

// checkGuard folds the cancellation check and the live-cell guardrail
// into one call for the scan loop's batch boundary.
func (e *engine) checkGuard() error {
	if err := e.guard.Err(); err != nil {
		return err
	}
	return e.guard.NoteLiveCells(e.live)
}

// finalizeNode collects finalized cells (all of them when flush is
// true), emits them in output order, and propagates them to dependent
// nodes, recursively finalizing those. Retired cells leave no
// tombstones: table and slabs are compacted to the survivors.
//
// The batch never exists as per-cell objects. Collection writes each
// finalized cell's sort columns — its output-order codes, then its key
// as big-endian code words, which order exactly as the key's bytes —
// into one flat uint64 array; the index sorter orders a permutation of
// its rows; the keys are written out in that order and become the
// batch's one string, which the emission log keeps and every Emit and
// delivery key is sliced from.
func (e *engine) finalizeNode(n *node, flush bool) error {
	for i := range n.arcs {
		n.arcs[i].advanced = false
	}
	total := n.tab.Len()
	if total == 0 {
		return nil
	}
	if !flush {
		// Without complete watermarks nothing can finalize.
		for i := range n.arcs {
			if !n.arcs[i].seen {
				return nil
			}
		}
	}
	kw := n.tab.KeyLen()
	keys := n.tab.Keys()
	width := len(n.outParts) + kw/8 // sort columns per batch row
	keep, cells, cols := e.keepIdx[:0], e.flushCells[:0], e.sortCols[:0]
	// The cell cache holds a dense index; survivors move during the
	// rebuild, so track where the cached cell lands (-1 if it flushed —
	// a basic node's next record then provably opens a new cell).
	lastKept := int32(-1)
	sorted := true
	for i := 0; i < total; i++ {
		key := keys[i*kw : i*kw+kw]
		if !flush && !e.cellFinal(n, key) {
			if int32(i) == n.lastCellIdx {
				lastKept = int32(len(keep))
			}
			keep = append(keep, int32(i))
			continue
		}
		if n.tracksBase && !n.inBase[i] {
			// Never a region of this measure (e.g. a sibling update for
			// a cell the base stream never confirmed): retired, no row.
			continue
		}
		at := len(cols)
		for j := range n.outParts {
			cols = append(cols, uint64(partCode(&n.outParts[j], key))^(1<<63))
		}
		for j := 0; j < kw; j += 8 {
			cols = append(cols, binary.BigEndian.Uint64(key[j:]))
		}
		// Scans often meet cells in emission order already; notice, and
		// skip the sort.
		if sorted && at > 0 && colsBefore(cols[at:], cols[at-width:at]) {
			sorted = false
		}
		cells = append(cells, int32(i))
	}
	e.keepIdx, e.flushCells, e.sortCols = keep, cells, cols
	retired := int64(total - len(keep))
	if retired == 0 {
		return nil // table untouched; the cell cache stays valid
	}
	e.finalized += retired
	e.noteLive(-retired)
	n.nFinalized += retired
	n.noteLive(-retired)
	e.stats.FlushBatches++
	n.nFlushes++

	// Emission order is (output-order projection, key): sort a
	// permutation of the batch rows by their columns, write the keys out
	// in that order, and take each row's value while its cell still
	// exists.
	rows := len(cells)
	order := e.order[:0]
	for r := 0; r < rows; r++ {
		order = append(order, int32(r))
	}
	if !sorted {
		e.sorter.Sort(order, cols, width, nil)
	}
	bk := e.flushKeys[:0]
	for _, r := range order {
		for _, w := range cols[int(r)*width+len(n.outParts) : int(r)*width+width] {
			bk = binary.BigEndian.AppendUint64(bk, w)
		}
	}
	e.order, e.flushKeys = order, bk
	batchKeys := string(bk)
	var vals []float64
	if rows > 0 {
		vals = make([]float64, rows)
		for j, r := range order {
			vals[j] = e.cellValue(n, cells[r], model.Key(batchKeys[j*kw:j*kw+kw]))
		}
	}
	e.compact(n, keep, lastKept)
	if rows == 0 {
		return nil
	}

	// Record output rows and propagate as an update stream.
	if !n.m.Hidden {
		n.log = append(n.log, logChunk{keys: batchKeys, vals: vals})
		n.nRecordsOut += int64(rows)
		if err := e.guard.NoteResultRows(int64(rows)); err != nil {
			return err
		}
	}
	for j, v := range vals {
		key := model.Key(batchKeys[j*kw : j*kw+kw])
		if e.emit != nil && !n.m.Hidden {
			e.emit(n.m.Name, key, v)
		}
		for _, d := range n.deps {
			e.deliver(e.nodes[d.node], d.role, n, key, v)
		}
	}
	// Watermarks advance only with delivered entries: a batch of
	// unconfirmed cells delivered nothing and returned above. Every
	// dependent received this batch, so walk them in node order (deps is
	// built in it; a dependent fed through two roles appears twice,
	// adjacently).
	for i, d := range n.deps {
		if i > 0 && n.deps[i-1].node == d.node {
			continue
		}
		dn := e.nodes[d.node]
		for a := range dn.arcs {
			if dn.arcs[a].advanced {
				if err := e.finalizeNode(dn, false); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// colsBefore reports whether sort-column row a orders strictly before
// row b.
func colsBefore(a, b []uint64) bool {
	for t := range a {
		if a[t] != b[t] {
			return a[t] < b[t]
		}
	}
	return false
}

// compact rebuilds the node's table and state slabs from the surviving
// cells keep (ascending), which take the dense indices 0..len(keep)-1.
func (e *engine) compact(n *node, keep []int32, lastKept int32) {
	kw := n.tab.KeyLen()
	kk := e.keepKeys[:0]
	for _, i := range keep {
		kk = append(kk, n.tab.KeyAt(i)...)
	}
	e.keepKeys = kk
	n.tab.Reset()
	for j := range keep {
		if n.appendOnly {
			n.tab.Append(kk[j*kw : j*kw+kw])
		} else {
			n.tab.Insert(kk[j*kw : j*kw+kw])
		}
	}
	if n.col != nil {
		n.col.Keep(keep)
	}
	if n.tracksBase {
		for j, i := range keep {
			n.inBase[j] = n.inBase[i]
		}
		n.inBase = n.inBase[:len(keep)]
	}
	if srcs := len(n.m.Sources); n.m.Kind == core.KindCombine {
		for j, i := range keep {
			copy(n.vals[j*srcs:j*srcs+srcs], n.vals[int(i)*srcs:])
			copy(n.present[j*srcs:j*srcs+srcs], n.present[int(i)*srcs:])
		}
		n.vals, n.present = n.vals[:len(keep)*srcs], n.present[:len(keep)*srcs]
	}
	n.lastCellIdx = lastKept
}

// cellFinal reports whether a cell's projection is strictly below
// every arc's shifted watermark, reading the key in place. The arc that
// vetoes a finalization counts one held-back event — the per-arc
// watermark lag surfaced in node stats.
func (e *engine) cellFinal(n *node, key []byte) bool {
	for i := range n.arcs {
		a := &n.arcs[i]
		// An empty comparable key or an unseen stream carries no
		// ordering information.
		if len(a.cellParts) == 0 || !a.seen || !a.below(key) {
			a.heldBack++
			return false
		}
	}
	return true
}

// below reports whether key's projection onto the arc's comparable key
// is lexicographically below the watermark; the first differing
// component decides, so later ones are not even generalized.
func (a *arcState) below(key []byte) bool {
	for j := range a.cellParts {
		if c := partCode(&a.cellParts[j], key); c != a.th[j] {
			return c < a.th[j]
		}
	}
	return false
}

// cellValue computes the measure value of finalized cell ci, whose key
// is key.
func (e *engine) cellValue(n *node, ci int32, key model.Key) float64 {
	switch n.m.Kind {
	case core.KindCombine:
		srcs := len(n.m.Sources)
		vals := n.vals[int(ci)*srcs : int(ci)*srcs+srcs]
		for i, ok := range n.present[int(ci)*srcs : int(ci)*srcs+srcs] {
			if !ok {
				vals[i] = agg.Null()
			}
		}
		return n.m.Combine.Eval(vals)
	case core.KindFromParent:
		src := e.nodes[n.m.Sources[0]]
		n.keyBuf = n.m.Codec.AppendUpTo(n.keyBuf[:0], key, src.m.Codec)
		n.parentCol.Reset()
		a := n.parentCol.Append()
		if v, ok := n.parentVals[model.Key(n.keyBuf)]; ok {
			n.parentCol.Update(a, v)
		}
		return n.parentCol.Final(a)
	default:
		return n.col.Final(ci)
	}
}

// deliver feeds one finalized entry of src into dependent node n,
// playing the role of source position `role` (-1 = base stream), and
// advances the matching watermark.
func (e *engine) deliver(n *node, role int, src *node, key model.Key, value float64) {
	m := n.m
	var arcIdx int
	if role < 0 {
		arcIdx = n.baseArc
	} else {
		arcIdx = n.srcArc[role]
	}
	arc := &n.arcs[arcIdx]
	n.nRecordsIn++
	moved := !arc.seen
	for j := range arc.srcParts {
		if c := partCode(&arc.srcParts[j], key) - arc.pl.Shift[j]; c != arc.th[j] {
			arc.th[j] = c
			moved = true
		}
	}
	if moved {
		arc.seen = true
		arc.advanced = true
		arc.advances++
		e.wmAdv++
	}

	// baseRole: this delivery provides cells. It is the dedicated base
	// arc, the S operand of a combine join, or a source that doubles
	// as the explicit base (WithBase on the sliding source itself).
	baseRole := role < 0 ||
		(m.Kind == core.KindCombine && role == 0) ||
		(n.baseArc == -1 && m.Base >= 0 && role >= 0 && m.Sources[role] == m.Base)
	filtered := false
	if role >= 0 && m.Filter != nil {
		src.m.Codec.FullDecodeInto(e.entryDims, key)
		e.entryMs[0] = value
		filtered = !m.Filter.Eval(e.entryDims, e.entryMs[:])
	}

	switch m.Kind {
	case core.KindRollup:
		if filtered {
			return
		}
		n.keyBuf = src.m.Codec.AppendUpTo(n.keyBuf[:0], key, m.Codec)
		n.col.Update(e.cellFor(n, n.keyBuf), value)
	case core.KindFromParent:
		if baseRole {
			n.inBase[e.cellFor(n, []byte(key))] = true
			return
		}
		if filtered {
			return
		}
		n.parentVals[key] = value
	case core.KindSibling:
		if baseRole {
			n.inBase[e.cellFor(n, []byte(key))] = true
		}
		if role < 0 || filtered {
			return
		}
		// An update at key k touches cells in [k-hi, k-lo] per window.
		n.keyBuf = append(n.keyBuf[:0], key...)
		e.updateShifted(n, key, 0, value)
	case core.KindCombine:
		ci := e.cellFor(n, []byte(key))
		if baseRole {
			n.inBase[ci] = true
		}
		at := int(ci)*len(m.Sources) + role
		n.vals[at], n.present[at] = value, true
	}
}

// updateShifted absorbs value into every cell a sibling-source update
// at key k affects: the product of [-hi, -lo] offsets per window, in
// ascending order. n.keyBuf holds k on entry; window i's code is
// patched in place, so enumerating the product allocates nothing.
func (e *engine) updateShifted(n *node, k model.Key, i int, value float64) {
	if i == len(n.m.Windows) {
		n.col.Update(e.cellFor(n, n.keyBuf), value)
		return
	}
	w := n.m.Windows[i]
	at := 8 * n.m.Codec.DimPos(w.Dim)
	base := n.m.Codec.CodeAt(k, w.Dim)
	for off := -w.Hi; off <= -w.Lo; off++ {
		binary.BigEndian.PutUint64(n.keyBuf[at:], uint64(base+off)^(1<<63))
		e.updateShifted(n, k, i+1, value)
	}
}
