package scan

import (
	"awra/internal/exec/cellmap"
	"awra/internal/obs"
)

// PublishReadStats flushes a batched source's chunk tallies into the
// recorder under the standard hot-path metric names — once, at a phase
// boundary, never per batch or per row. Sources that are not chunked
// readers (in-memory records) publish nothing. Nil-safe on rec.
func PublishReadStats(rec *obs.Recorder, src BatchSource) {
	rs, ok := src.(interface{ ReadStats() ReadStats })
	if !ok {
		return
	}
	st := rs.ReadStats()
	if st.Chunks == 0 {
		return
	}
	rec.Counter(obs.MScanChunks).Add(st.Chunks)
	rec.Counter(obs.MScanBytes).Add(st.BytesRead)
	rec.Gauge(obs.GScanBatchFill).Set(st.FillPermille)
}

// PublishCellStats flushes the cell tables' probe and arena tallies
// into the recorder, aggregated across the tables, at the end of a run.
func PublishCellStats(rec *obs.Recorder, tabs []*cellmap.Table) {
	var probeHWM, grows, arena int64
	for _, tab := range tabs {
		ts := tab.Stats()
		probeHWM = max(probeHWM, ts.ProbeHWM)
		grows += ts.Grows
		arena += ts.ArenaBytesHWM
	}
	rec.Counter(obs.MCellTableGrows).Add(grows)
	rec.Gauge(obs.GCellProbeHWM).SetMax(probeHWM)
	rec.Gauge(obs.GCellArenaBytes).SetMax(arena)
}
