package scan

import (
	"awra/internal/exec/cellmap"
	"awra/internal/obs"
)

// sourceStats is what a source tallied, in the engine vocabulary: a
// file reader's chunks, a spilled sort part's heap comparisons. Other
// sources (in-memory records) tally nothing.
func sourceStats(src BatchSource) obs.EngineStats {
	if s, ok := src.(interface{ EngineStats() obs.EngineStats }); ok {
		return s.EngineStats()
	}
	return obs.EngineStats{}
}

// EngineStats is the reader's fill tallies so far, in the engine
// vocabulary: each fill's capacity is the rows it had room for, so the
// fill ratio stays true whatever the reads' sizes.
func (r *Reader) EngineStats() obs.EngineStats {
	return obs.EngineStats{
		ScanChunks:   r.chunks,
		ScanBytes:    r.bytesRead,
		ScanCapacity: r.capacity,
	}
}

// AddCellStats adds a cell table's tallies to a run's stats: grows and
// arena bytes add across the run's tables, and the probe walk keeps the
// longest.
func AddCellStats(st *obs.EngineStats, tab *cellmap.Table) {
	ts := tab.Stats()
	st.CellGrows += ts.Grows
	st.CellProbeHWM = max(st.CellProbeHWM, ts.ProbeHWM)
	st.CellArenaBytes += ts.ArenaBytesHWM
}
