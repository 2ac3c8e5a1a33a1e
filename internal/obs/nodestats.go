package obs

// NodeStats attributes one engine run's costs to a single measure node
// of the workflow DAG — the per-operator "actual rows / actual time"
// view that Tables 7-8 of the paper reason about. Engines accumulate
// these in plain local fields during the scan (never touching the
// recorder) and return them in EngineStats.Nodes; EXPLAIN ANALYZE,
// history lines and flight traces read them from there.
//
// Counter-like fields (records, cells, batches, arc advances) add
// when Add folds two runs of one node, so sharded and multi-pass
// engines, which run a node several times, produce correct totals.
// LiveCellsHWM takes the maximum, and EstCells (the optimizer's
// pre-execution estimate, in cells) keeps the larger value.
type NodeStats struct {
	// Node is the measure's workflow name (label value in exports).
	Node string `json:"node"`
	// RecordsIn counts records or input cells consumed by the node
	// (base records for basics, child cells for rollups/composites).
	RecordsIn int64 `json:"records_in,omitempty"`
	// RecordsOut counts result rows the node emitted.
	RecordsOut int64 `json:"records_out,omitempty"`
	// CellsCreated counts hash entries (live cells) this node created.
	CellsCreated int64 `json:"cells_created,omitempty"`
	// CellsFinalized counts cells the node flushed to its output table.
	CellsFinalized int64 `json:"cells_finalized,omitempty"`
	// FlushBatches counts watermark-triggered early-flush batches.
	FlushBatches int64 `json:"flush_batches,omitempty"`
	// LiveCellsHWM is the node's peak simultaneous live-cell count.
	LiveCellsHWM int64 `json:"live_cells_hwm,omitempty"`
	// EstCells is the optimizer's estimated cell count for the node
	// (plan.Node.EstCells), if a planning pass ran. Zero otherwise.
	EstCells float64 `json:"est_cells,omitempty"`
	// Arcs reports per-dependency watermark behavior (§5 arcs).
	Arcs []ArcStats `json:"arcs,omitempty"`
}

// ArcStats is the watermark behavior of one incoming arc of a node.
type ArcStats struct {
	// Label identifies the arc, "src->dst".
	Label string `json:"label"`
	// Advances counts coarse watermark advances observed on this arc.
	Advances int64 `json:"advances,omitempty"`
	// HeldBack counts finalization attempts deferred because this
	// arc's watermark lagged — the per-arc watermark lag.
	HeldBack int64 `json:"held_back,omitempty"`
}

// Add folds src into dst with the family's merge semantics.
func (dst *NodeStats) Add(src NodeStats) {
	dst.RecordsIn += src.RecordsIn
	dst.RecordsOut += src.RecordsOut
	dst.CellsCreated += src.CellsCreated
	dst.CellsFinalized += src.CellsFinalized
	dst.FlushBatches += src.FlushBatches
	if src.LiveCellsHWM > dst.LiveCellsHWM {
		dst.LiveCellsHWM = src.LiveCellsHWM
	}
	if src.EstCells > dst.EstCells {
		dst.EstCells = src.EstCells
	}
	for _, a := range src.Arcs {
		found := false
		for i := range dst.Arcs {
			if dst.Arcs[i].Label == a.Label {
				dst.Arcs[i].Advances += a.Advances
				dst.Arcs[i].HeldBack += a.HeldBack
				found = true
				break
			}
		}
		if !found {
			dst.Arcs = append(dst.Arcs, a)
		}
	}
}
