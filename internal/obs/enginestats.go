package obs

import "time"

// EngineStats is one engine run's costs in the engine vocabulary — the
// paper's §7 cost terms: sort vs. scan time (Figure 6(e)) and the
// live-cell footprint of Tables 7-8 — plus the read, cell-table, shard
// and merge tallies of the layers under it. Engines, the external sort
// and the scan phase fill it in plain fields and return it; the entry
// point that ran them publishes it once, and a history record embeds
// it. The JSON keys are the metric names.
type EngineStats struct {
	Records           int64 `json:"records_scanned,omitempty"`
	FactScans         int64 `json:"fact_scans,omitempty"`
	Passes            int64 `json:"passes,omitempty"`
	CellsCreated      int64 `json:"cells_created,omitempty"`
	CellsFinalized    int64 `json:"cells_finalized,omitempty"`
	FlushBatches      int64 `json:"flush_batches,omitempty"`
	WatermarkAdvances int64 `json:"watermark_advances,omitempty"`
	PeakCells         int64 `json:"live_cells_hwm,omitempty"`
	PeakBytes         int64 `json:"hashtable_bytes_hwm,omitempty"`
	Spills            int64 `json:"spill_events,omitempty"`
	SpillBytes        int64 `json:"spill_bytes,omitempty"`
	SpilledEntries    int64 `json:"spilled_entries,omitempty"`
	SortRuns          int64 `json:"sort_runs,omitempty"`

	// ScanChunks and ScanBytes are the fills and bytes of batched file
	// reads; ScanCapacity is what those fills had room for, so the fill
	// (FillPermille) of several reads folds into one figure.
	ScanChunks   int64 `json:"scan_chunks,omitempty"`
	ScanBytes    int64 `json:"scan_bytes,omitempty"`
	ScanCapacity int64 `json:"-"`
	// CellGrows adds across a run's cell tables; CellProbeHWM is their
	// longest probe walk, and CellArenaBytes their summed key arenas.
	// Across runs the two high-water marks take the larger.
	CellGrows      int64 `json:"cellmap_grows,omitempty"`
	CellProbeHWM   int64 `json:"cellmap_probe_len_hwm,omitempty"`
	CellArenaBytes int64 `json:"cellmap_arena_bytes_hwm,omitempty"`
	// ShardsPlanned and ShardSkew (largest shard over the mean, in
	// permille) describe a sharded run's split; HeapComparisons counts
	// the external merge's heap comparisons.
	ShardsPlanned   int64 `json:"shards_planned,omitempty"`
	ShardSkew       int64 `json:"shard_skew_ratio,omitempty"`
	HeapComparisons int64 `json:"heap_comparisons,omitempty"`

	// SortTime, ScanTime and CombineTime are the run's sort, scan and
	// combine phases; the span tree carries them to history lines.
	SortTime, ScanTime, CombineTime time.Duration `json:"-"`
	// Nodes is the per-node breakdown, unmerged: a node run in several
	// shards or passes appears once per run. Readers fold it by name
	// (NodeTotals).
	Nodes []NodeStats `json:"-"`
}

// Add folds o into s the way the recorder folds two publishes: counts
// and durations add, high-water marks take the larger, nodes append.
func (s *EngineStats) Add(o EngineStats) {
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
	s.ScanChunks += o.ScanChunks
	s.ScanBytes += o.ScanBytes
	s.ScanCapacity += o.ScanCapacity
	s.CellGrows += o.CellGrows
	s.CellProbeHWM = max(s.CellProbeHWM, o.CellProbeHWM)
	s.CellArenaBytes = max(s.CellArenaBytes, o.CellArenaBytes)
	s.ShardsPlanned += o.ShardsPlanned
	s.ShardSkew = max(s.ShardSkew, o.ShardSkew)
	s.HeapComparisons += o.HeapComparisons
	s.SortTime += o.SortTime
	s.ScanTime += o.ScanTime
	s.CombineTime += o.CombineTime
	s.Nodes = append(s.Nodes, o.Nodes...)
}

// FillPermille is the reads' average fill in permille (1000 = every
// fill read as much as it had room for); 0 when nothing was read from a
// file.
func (s EngineStats) FillPermille() int64 {
	if s.ScanCapacity == 0 {
		return 0
	}
	return s.ScanBytes * 1000 / s.ScanCapacity
}

// Publish writes the stats to the recorder under the metric names,
// every name whether zero or not, so all engines export one set. The
// fill gauge is the latest file-reading run's. Only the entry points
// that run an engine call it, once per run; the per-node list is not
// published (EXPLAIN ANALYZE, history lines and traces read it).
func (s EngineStats) Publish(rec *Recorder) {
	rec.Counter(MRecordsScanned).Add(s.Records)
	rec.Counter(MFactScans).Add(s.FactScans)
	rec.Counter(MPasses).Add(s.Passes)
	rec.Counter(MCellsCreated).Add(s.CellsCreated)
	rec.Counter(MCellsFinalized).Add(s.CellsFinalized)
	rec.Counter(MFlushBatches).Add(s.FlushBatches)
	rec.Counter(MWatermarkAdvances).Add(s.WatermarkAdvances)
	rec.Gauge(GLiveCellsHWM).SetMax(s.PeakCells)
	rec.Gauge(GHashBytesHWM).SetMax(s.PeakBytes)
	rec.Counter(MSpillEvents).Add(s.Spills)
	rec.Counter(MSpillBytes).Add(s.SpillBytes)
	rec.Counter(MSpilledEntries).Add(s.SpilledEntries)
	rec.Counter(MSortRuns).Add(s.SortRuns)
	rec.Counter(MScanChunks).Add(s.ScanChunks)
	rec.Counter(MScanBytes).Add(s.ScanBytes)
	if fill := rec.Gauge(GScanBatchFill); s.ScanCapacity > 0 {
		fill.Set(s.FillPermille())
	}
	rec.Counter(MCellTableGrows).Add(s.CellGrows)
	rec.Gauge(GCellProbeHWM).SetMax(s.CellProbeHWM)
	rec.Gauge(GCellArenaBytes).SetMax(s.CellArenaBytes)
	rec.Counter(MShardsPlanned).Add(s.ShardsPlanned)
	rec.Gauge(GShardSkew).SetMax(s.ShardSkew)
	rec.Counter(MHeapComparisons).Add(s.HeapComparisons)
}

// NodeTotals folds the per-node list by node name.
func (s EngineStats) NodeTotals() map[string]NodeStats {
	out := make(map[string]NodeStats, len(s.Nodes))
	for _, ns := range s.Nodes {
		cur := out[ns.Node]
		cur.Node = ns.Node
		cur.Add(ns)
		out[ns.Node] = cur
	}
	return out
}
