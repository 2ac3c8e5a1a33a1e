package obs

import "time"

// EngineStats is one engine run's costs in the engine vocabulary — the
// paper's §7 cost terms: sort vs. scan time (Figure 6(e)) and the
// live-cell footprint of Tables 7-8. Engines fill it in plain fields
// and return it; the entry point that ran them publishes it once, and
// a history record embeds it. The JSON keys are the metric names.
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

	// SortTime, ScanTime and CombineTime are the run's sort, scan and
	// combine phases; the span tree carries them to history lines.
	SortTime, ScanTime, CombineTime time.Duration `json:"-"`
	// Nodes is the per-node breakdown, unmerged: a node run in several
	// shards or passes appears once per run. Readers fold it by name
	// (NodeStats.Add).
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
	s.SortTime += o.SortTime
	s.ScanTime += o.ScanTime
	s.CombineTime += o.CombineTime
	s.Nodes = append(s.Nodes, o.Nodes...)
}

// Publish writes the stats to the recorder under the engine vocabulary,
// every name whether zero or not, so all engines export one set, and
// merges the per-node list into the recorder's node family. Only the
// entry points that run an engine call it, once per run.
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
	for _, ns := range s.Nodes {
		rec.MergeNodeStats(ns)
	}
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
