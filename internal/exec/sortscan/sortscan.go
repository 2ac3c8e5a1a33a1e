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
// open-addressing cellmap.Table plus a dense cell slice instead of a
// Go map. Guard checks run per batch, not per row.
package sortscan

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
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
	// TempDir receives external-sort run files.
	TempDir string
	// ChunkRecords tunes the external sort (0 = default).
	ChunkRecords int
	// ReadBatchBytes is the chunk size of the batched fact reads
	// (0 = scan.DefaultBatchBytes).
	ReadBatchBytes int
	// AssumeSorted skips the sort phase; the input must already be
	// ordered by SortKey.
	AssumeSorted bool
	// Stats supplies cardinality estimates for the plan's footprint
	// numbers (informational).
	Stats *plan.Stats
	// DisableEarlyFlush turns off watermark-based finalization during
	// the scan, so everything flushes only at the end (ablation knob:
	// it isolates the memory benefit of the paper's early flushing).
	DisableEarlyFlush bool
	// ParallelSort sorts run files on SortWorkers goroutines during
	// the sort phase.
	ParallelSort bool
	// SortWorkers bounds the parallel sort (0 = GOMAXPROCS).
	SortWorkers int
	// Recorder, if non-nil, receives the run's phase spans
	// (sort/runs/merge, scan, finalize) and the standard engine
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

// cell is one live hash entry. Cells live in a node's dense cellData
// slice, parallel to its cellmap.Table entries.
type cell struct {
	agg     agg.Aggregator // basic/rollup/fromparent/sibling
	cnt     int64          // devirtualized COUNT(*) state (node.isCount)
	vals    []float64      // combine: per-source values
	present []uint8        // combine: which sources delivered
	inBase  bool           // confirmed by the base/cell-providing stream
}

// arcState tracks one incoming stream's watermark as a vector of
// shifted comparable-key codes (compared lexicographically, which is
// exactly the byte order of the encoded comparable key).
type arcState struct {
	pl   plan.Arc
	th   []int64 // shifted projection of the last update
	seen bool
	advanced bool
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
	// Live cells: open-addressing table over encoded keys plus the
	// dense parallel cell slice. Entry i of tab owns cellData[i].
	tab      *cellmap.Table
	cellData []cell
	// Survivor scratch for flush-time table rebuilds (no tombstones:
	// retiring a batch re-inserts the survivors).
	keepKeys  []byte
	keepCells []cell
	// Scan fast path: consecutive sorted records usually hit the same
	// cell, so cache its dense index and skip the key encoding and
	// table probe until a cell code changes (cellDirty, fed by the
	// engine's shared per-record change flags; it stays sticky across
	// filtered records, which skip the cache update).
	lastCellIdx int32
	cellDirty   bool
	keyBuf      []byte
	// wmIdx/cellIdx index the engine's shared per-record code table:
	// wmIdx[j] locates arc 0's CmpKey[j] code, cellIdx[t] the t-th
	// non-ALL granularity component's code.
	wmIdx   []int
	cellIdx []int
	// isCount devirtualizes COUNT(*): cells keep an inline int64
	// instead of a heap-allocated aggregator, skipping one allocation
	// per cell and one interface call per update on the hottest
	// aggregate. Sharded state extraction turns it off for its marked
	// nodes (they must hand back real aggregators to merge).
	isCount bool
	// appendOnly marks basic nodes whose cell keys are contiguous under
	// the scan's full tiebreak order (contiguousCells): a changed key is
	// provably new, so misses skip the hash probe (cellmap.Append).
	appendOnly bool
	// projBuf backs the flush batch's output-order projections (code
	// vectors, stride len(pl.OutOrder)).
	projBuf []int64
	// batchBuf is the reusable flush-batch collection buffer.
	batchBuf []finalEntry
	// outRows is the emission log behind the public output table:
	// flushes append here and materialize() builds out.Rows once, with
	// exact size, instead of paying incremental map growth per row.
	outRows []outKV
	// srcArc maps "source position" (index into m.Sources) to the arc
	// index; baseArc is the base stream's arc index (-1 if none).
	srcArc  []int
	baseArc int
	// fromparent staging: parent values keyed by the parent's key.
	parentVals map[model.Key]float64
	out        *core.Table
	// dependents: (node index, role) pairs; role is the source
	// position, or -1 for base.
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

// outKV is one emitted output row awaiting table materialization.
type outKV struct {
	k model.Key
	v float64
}

// materialize moves the emission log into the node's public output
// table as one exact-size map build. Emission order is preserved, so
// duplicate keys keep the map's last-wins semantics.
func (n *node) materialize() {
	if len(n.outRows) == 0 {
		return
	}
	if len(n.out.Rows) == 0 {
		rows := make(map[model.Key]float64, len(n.outRows))
		for _, kv := range n.outRows {
			rows[kv.k] = kv.v
		}
		n.out.Rows = rows
	} else {
		for _, kv := range n.outRows {
			n.out.Rows[kv.k] = kv.v
		}
	}
	n.outRows = n.outRows[:0]
}

// contiguousCells reports whether scanning records in the full sorted
// order — sort key parts, then base coordinates ascending (the order
// scan.SortFileByKey produces) — visits gran's cell keys contiguously:
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
	// stateIdx, when non-nil, marks nodes whose cells are extracted as
	// raw aggregator states instead of finalized (sharded runs).
	stateIdx []bool
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
	// it is filled once per record only when a filter exists.
	needRec     bool
	frec        model.Record
	numDims     int
	numMeasures int
	// projScratch backs cellFinal/deliver comparable-key projections.
	projScratch []int64
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

// sortSeq disambiguates the sorted-copy paths of concurrent runs over
// the same fact file within this process.
var sortSeq atomic.Int64

// Run sorts the fact file by the sort key and evaluates the workflow
// in one streaming pass.
func Run(c *core.Compiled, factPath string, opts Options) (*Result, error) {
	rec := opts.Recorder
	if rec == nil {
		rec = obs.New() // private recorder so Stats stays complete
	}
	pl, err := plan.Build(c, opts.SortKey, opts.Stats)
	if err != nil {
		return nil, err
	}
	scanPath := factPath
	var st Stats
	if !opts.AssumeSorted {
		// The sorted copy is private to this run and removed when it
		// ends, so its name must be unique: concurrent queries over the
		// same fact file (a serving process) must not overwrite or
		// delete each other's copy mid-scan.
		sorted := fmt.Sprintf("%s.sorted.%d.%d", factPath, os.Getpid(), sortSeq.Add(1))
		defer os.Remove(sorted)
		sortSpan := rec.Start(obs.SpanSort)
		ss, err := scan.SortFileByKey(factPath, sorted, c.Schema, pl.SortKey, scan.SortOptions{
			ChunkRecords: opts.ChunkRecords, TempDir: opts.TempDir,
			Parallel: opts.ParallelSort, Workers: opts.SortWorkers,
			BatchBytes: opts.ReadBatchBytes,
			Recorder:   rec.At(sortSpan), Guard: opts.Guard,
		})
		if err != nil {
			return nil, fmt.Errorf("sortscan: sort: %w", err)
		}
		sortSpan.SetAttr("runs", fmt.Sprint(ss.Runs))
		sortSpan.SetAttr("key", pl.SortKey.String(c.Schema))
		sortSpan.End()
		st.SortTime = sortSpan.Duration()
		st.SortRuns = ss.Runs
		scanPath = sorted
	}
	r, err := scan.Open(scanPath, scan.Options{BatchBytes: opts.ReadBatchBytes, Guard: opts.Guard})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	// A file sorted by this run carries the full base-coordinate
	// tiebreak order, which unlocks the append-only cell-table path;
	// caller-sorted input only promises the plan key.
	res, err := runSorted(c, pl, r, opts.DisableEarlyFlush, !opts.AssumeSorted, rec, opts.Guard)
	if err != nil {
		return nil, err
	}
	res.Stats.SortTime = st.SortTime
	res.Stats.SortRuns = st.SortRuns
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
	res, _, err := runSortedStates(c, pl, src, disableEarlyFlush, fullOrder, obsRec, guard, nil)
	return res, err
}

// runSortedStates is the engine's core loop. When stateIdx is non-nil,
// the marked nodes (leaf basics whose regions span shard units) are
// never finalized: their cells stay live through the whole scan and
// their raw aggregator states are returned, keyed like their output
// tables, for a cross-shard merge by the sharded driver. All other
// nodes flush normally. fullOrder asserts the source carries the full
// tiebreak order (sort key, then base coordinates ascending) — the
// order this package's own sort produces — not just the plan key.
func runSortedStates(c *core.Compiled, pl *plan.Plan, src scan.BatchSource, disableEarlyFlush, fullOrder bool, obsRec *obs.Recorder, guard *qguard.Guard, stateIdx []bool) (*Result, []map[model.Key]agg.Aggregator, error) {
	e := newEngine(c, pl, disableEarlyFlush, obsRec)
	e.guard = guard
	e.stateIdx = stateIdx
	if stateIdx != nil {
		// State-extraction nodes hand raw aggregators to the sharded
		// merge; they cannot use the inline COUNT(*) representation.
		for _, n := range e.nodes {
			if stateIdx[n.idx] {
				n.isCount = false
			}
		}
	}
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
			return nil, nil, fmt.Errorf("sortscan: %w", err)
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
			return nil, nil, err
		}
		for _, row := range batch {
			e.stats.Records++
			if e.stats.Records&255 == 0 {
				if err := e.checkGuard(); err != nil {
					return nil, nil, err
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
						return nil, nil, err
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
	var states []map[model.Key]agg.Aggregator
	if stateIdx != nil {
		states = make([]map[model.Key]agg.Aggregator, len(e.nodes))
	}
	for _, n := range e.nodes {
		if stateIdx != nil && stateIdx[n.idx] {
			st := make(map[model.Key]agg.Aggregator, n.tab.Len())
			for i := 0; i < n.tab.Len(); i++ {
				st[model.Key(n.tab.KeyAt(int32(i)))] = n.cellData[i].agg
				e.noteLive(-1)
				n.noteLive(-1)
			}
			n.tab.Reset()
			n.cellData = n.cellData[:0]
			n.lastCellIdx = -1
			states[n.idx] = st
			continue
		}
		if err := e.finalizeNode(n, true); err != nil {
			return nil, nil, err
		}
	}
	finSpan.End()
	e.stats.ScanTime = scanSpan.Duration() + finSpan.Duration()
	e.publish()

	res := &Result{Tables: make(map[string]*core.Table), Stats: e.stats, Plan: pl}
	for _, name := range c.Outputs() {
		i, _ := c.Index(name)
		e.nodes[i].materialize()
		res.Tables[name] = e.nodes[i].out
	}
	return res, states, nil
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
		th := arc.th[:0]
		for j, ci := range n.wmIdx {
			th = append(th, e.cpVals[ci]-arc.pl.Shift[j])
		}
		arc.th = th
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
			fresh := cell{inBase: true}
			if !n.isCount {
				fresh.agg = m.Agg.New()
			}
			n.cellData = append(n.cellData, fresh)
			e.created++
			e.noteLive(1)
			n.nCreated++
			n.noteLive(1)
		}
		n.lastCellIdx = idx
		n.cellDirty = false
	}
	cl := &n.cellData[idx]
	switch {
	case n.isCount:
		cl.cnt++
	case m.FactMeasure >= 0:
		cl.agg.Update(row.Measure(e.numDims, m.FactMeasure))
	default:
		cl.agg.Update(0)
	}
}

// projectCodes maps a region key (from codec) onto a comparable key
// as a code vector, optionally applying shifts (for watermarks; nil
// for entries), reusing dst. Lexicographic comparison of code vectors
// equals byte comparison of the encoded comparable keys.
func projectCodes(s *model.Schema, cmp model.SortKey, shift []int64, codec *model.KeyCodec, k model.Key, dst []int64) []int64 {
	dst = dst[:0]
	for j, p := range cmp {
		code := s.Dim(p.Dim).Up(codec.Gran()[p.Dim], p.Lvl, codec.CodeAt(k, p.Dim))
		if shift != nil {
			code -= shift[j]
		}
		dst = append(dst, code)
	}
	return dst
}

// codesCompare lexicographically compares equal-length code vectors.
func codesCompare(a, b []int64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
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

// finalEntry is one finalized cell ready for emission. Its
// output-order projection lives in the node's projBuf at
// [proj*stride, (proj+1)*stride) — code vectors, not encoded keys, so
// collecting a flush batch does not allocate per cell.
type finalEntry struct {
	key   model.Key
	proj  int
	value float64
	emit  bool
}

// finalizeNode collects finalized cells (all of them when flush is
// true), emits them in output order, and propagates them to dependent
// nodes, recursively finalizing those. Retired cells leave no
// tombstones: the table is rebuilt from the survivors.
func (e *engine) finalizeNode(n *node, flush bool) error {
	for i := range n.arcs {
		n.arcs[i].advanced = false
	}
	if n.tab.Len() == 0 {
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
	batch := n.batchBuf[:0]
	sch := e.c.Schema
	kw := n.tab.KeyLen()
	keepKeys := n.keepKeys[:0]
	keepCells := n.keepCells[:0]
	projBuf := n.projBuf[:0]
	stride := len(n.pl.OutOrder)
	total := n.tab.Len()
	// The scan fast-path cache holds a dense index; survivors move
	// during the rebuild, so track where the cached cell lands (-1 if
	// it flushed — the next record then provably opens a new cell).
	lastKept := int32(-1)
	uniformProj := true
	for i := 0; i < total; i++ {
		k := model.Key(n.tab.KeyAt(int32(i)))
		cl := &n.cellData[i]
		if !flush && !e.cellFinal(n, k) {
			keepKeys = append(keepKeys, n.tab.KeyAt(int32(i))...)
			keepCells = append(keepCells, *cl)
			if int32(i) == n.lastCellIdx {
				lastKept = int32(len(keepCells) - 1)
			}
			continue
		}
		fe := finalEntry{key: k, proj: len(batch)}
		fe.value, fe.emit = e.cellValue(n, k, cl)
		for _, p := range n.pl.OutOrder {
			projBuf = append(projBuf, sch.Dim(p.Dim).Up(n.m.Codec.Gran()[p.Dim], p.Lvl, n.m.Codec.CodeAt(k, p.Dim)))
		}
		if uniformProj && fe.proj > 0 &&
			codesCompare(projBuf[fe.proj*stride:fe.proj*stride+stride], projBuf[:stride]) != 0 {
			uniformProj = false
		}
		batch = append(batch, fe)
		e.finalized++
		e.noteLive(-1)
		n.nFinalized++
		n.noteLive(-1)
	}
	n.keepKeys = keepKeys
	n.keepCells = keepCells
	n.projBuf = projBuf
	n.batchBuf = batch
	if len(batch) == 0 {
		return nil // table untouched; the scan cache stays valid
	}
	n.tab.Reset()
	n.cellData = n.cellData[:0]
	for i := range keepCells {
		if n.appendOnly {
			n.tab.Append(keepKeys[i*kw : i*kw+kw])
		} else {
			n.tab.Insert(keepKeys[i*kw : i*kw+kw])
		}
		n.cellData = append(n.cellData, keepCells[i])
	}
	n.lastCellIdx = lastKept
	e.stats.FlushBatches++
	n.nFlushes++
	// Emission order is (output-order projection, key). Flush batches
	// very often hold a single projection class — one finalized region
	// of the coarse component — so detect that while collecting and
	// sort by key alone, skipping the vector compares.
	if uniformProj {
		sorted := true
		for i := 1; i < len(batch); i++ {
			if batch[i].key < batch[i-1].key {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.Slice(batch, func(i, j int) bool { return batch[i].key < batch[j].key })
		}
	} else {
		sort.Slice(batch, func(i, j int) bool {
			pi := projBuf[batch[i].proj*stride : batch[i].proj*stride+stride]
			pj := projBuf[batch[j].proj*stride : batch[j].proj*stride+stride]
			if c := codesCompare(pi, pj); c != 0 {
				return c < 0
			}
			return batch[i].key < batch[j].key
		})
	}
	// Record output rows and propagate as an update stream.
	touched := map[int]bool{}
	var emitted int64
	for _, fe := range batch {
		if !fe.emit {
			continue
		}
		if !n.m.Hidden {
			n.outRows = append(n.outRows, outKV{fe.key, fe.value})
			emitted++
			if e.emit != nil {
				e.emit(n.m.Name, fe.key, fe.value)
			}
		}
		for _, d := range n.deps {
			e.deliver(e.nodes[d.node], d.role, n, fe.key, fe.value)
			touched[d.node] = true
		}
	}
	n.nRecordsOut += emitted
	if err := e.guard.NoteResultRows(emitted); err != nil {
		return err
	}
	// Even emit-less batches advance downstream watermarks? No: a
	// dropped cell (emit=false) was never a real region of this
	// measure, so it must not advance watermarks it never would have
	// produced. Watermarks advance only with delivered entries.
	var depIdxs []int
	for d := range touched {
		depIdxs = append(depIdxs, d)
	}
	sort.Ints(depIdxs)
	for _, d := range depIdxs {
		dn := e.nodes[d]
		anyAdv := false
		for i := range dn.arcs {
			if dn.arcs[i].advanced {
				anyAdv = true
			}
		}
		if anyAdv {
			if err := e.finalizeNode(dn, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// cellFinal reports whether a cell's projection is strictly below
// every arc's shifted watermark. The arc that vetoes a finalization
// counts one held-back event — the per-arc watermark lag surfaced in
// node stats.
func (e *engine) cellFinal(n *node, k model.Key) bool {
	sch := e.c.Schema
	for i := range n.arcs {
		a := &n.arcs[i]
		if len(a.pl.CmpKey) == 0 || !a.seen {
			a.heldBack++
			return false // no ordering information from this stream
		}
		p := projectCodes(sch, a.pl.CmpKey, nil, n.m.Codec, k, e.projScratch)
		e.projScratch = p
		if codesCompare(p, a.th) >= 0 {
			a.heldBack++
			return false
		}
	}
	return true
}

// cellValue computes a finalized cell's measure value; emit=false
// means the cell never belonged to the measure's region set (e.g. a
// sibling update for a cell the base stream never confirmed).
func (e *engine) cellValue(n *node, k model.Key, cl *cell) (float64, bool) {
	switch n.m.Kind {
	case core.KindCombine:
		if !cl.inBase {
			return 0, false
		}
		for i := range cl.vals {
			if cl.present[i] == 0 {
				cl.vals[i] = agg.Null()
			}
		}
		return n.m.Combine.Eval(cl.vals), true
	case core.KindFromParent:
		if !cl.inBase {
			return 0, false
		}
		src := e.nodes[n.m.Sources[0]]
		a := n.m.Agg.New()
		if v, ok := n.parentVals[n.m.Codec.UpTo(k, src.m.Codec)]; ok {
			a.Update(v)
		}
		return a.Final(), true
	case core.KindSibling:
		if !cl.inBase {
			return 0, false
		}
		if n.isCount {
			return float64(cl.cnt), true
		}
		return cl.agg.Final(), true
	default:
		if n.isCount {
			return float64(cl.cnt), true
		}
		return cl.agg.Final(), true
	}
}

// deliver feeds one finalized entry of src into dependent node n,
// playing the role of source position `role` (-1 = base stream), and
// advances the matching watermark.
func (e *engine) deliver(n *node, role int, src *node, key model.Key, value float64) {
	m := n.m
	sch := e.c.Schema
	var arcIdx int
	if role < 0 {
		arcIdx = n.baseArc
	} else {
		arcIdx = n.srcArc[role]
	}
	arc := &n.arcs[arcIdx]
	n.nRecordsIn++
	pk := projectCodes(sch, arc.pl.CmpKey, arc.pl.Shift, src.m.Codec, key, e.projScratch)
	e.projScratch = pk
	if !arc.seen || codesCompare(pk, arc.th) != 0 {
		arc.th = append(arc.th[:0], pk...)
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
		ms := [1]float64{value}
		if !m.Filter.Eval(src.m.Codec.FullDecode(key), ms[:]) {
			filtered = true
		}
	}

	switch m.Kind {
	case core.KindRollup:
		if filtered {
			return
		}
		up := src.m.Codec.UpTo(key, m.Codec)
		cl := n.getCell(up, e)
		cl.inBase = true
		if n.isCount {
			cl.cnt++
		} else {
			cl.agg.Update(value)
		}
	case core.KindFromParent:
		if baseRole {
			n.getCell(key, e).inBase = true
			return
		}
		if filtered {
			return
		}
		n.parentVals[key] = value
	case core.KindSibling:
		if baseRole {
			n.getCell(key, e).inBase = true
		}
		if role < 0 || filtered {
			return
		}
		// An update at key k touches cells in [k-hi, k-lo] per window.
		forEachShifted(m.Codec, key, m.Windows, func(ck model.Key) {
			cl := n.getCell(ck, e)
			if n.isCount {
				cl.cnt++
			} else {
				cl.agg.Update(value)
			}
		})
	case core.KindCombine:
		cl := n.getCell(key, e)
		if baseRole {
			cl.inBase = true
		}
		cl.vals[role] = value
		cl.present[role] = 1
	}
}

// getCell returns the live cell for k, creating it if absent. The
// returned pointer is valid only until the next getCell or scanRecord
// on the same node (the dense slice may grow).
func (n *node) getCell(k model.Key, e *engine) *cell {
	idx, created := n.tab.Insert([]byte(k))
	if created {
		var cl cell
		switch n.m.Kind {
		case core.KindCombine:
			cl.vals = make([]float64, len(n.m.Sources))
			cl.present = make([]uint8, len(n.m.Sources))
		case core.KindFromParent:
			// value computed at finalization from parentVals
		default:
			if !n.isCount {
				cl.agg = n.m.Agg.New()
			}
		}
		n.cellData = append(n.cellData, cl)
		e.created++
		e.noteLive(1)
		n.nCreated++
		n.noteLive(1)
	}
	return &n.cellData[idx]
}

// forEachShifted enumerates the cell keys affected by a sibling-source
// update at key k: the product of [-hi, -lo] offsets per window, in
// ascending order.
func forEachShifted(c *model.KeyCodec, k model.Key, windows []core.Window, visit func(model.Key)) {
	var rec func(cur model.Key, i int)
	rec = func(cur model.Key, i int) {
		if i == len(windows) {
			visit(cur)
			return
		}
		w := windows[i]
		base := c.CodeAt(k, w.Dim)
		for off := -w.Hi; off <= -w.Lo; off++ {
			rec(c.WithCodeAt(cur, w.Dim, base+off), i+1)
		}
	}
	rec(k, 0)
}
