package aw

import "awra/internal/obs"

// In-flight query registry re-exports. Every Run/RunCompiled call
// registers its query span in a process-global registry for its
// duration, so operators can list live queries — ID, the engine and
// trace ID set on the span, current phase, per-shard/partition record
// progress (exact percentages: fixed-width rows make totals known from
// the file header) and elapsed time. A run's numbers are published when
// it ends, not while it runs. Streaming sessions are long-lived by
// design and do not register.
type (
	// QuerySnapshot is one in-flight query as reported by
	// InflightQueries.
	QuerySnapshot = obs.QuerySnapshot
	// WorkerProgress is per-shard/partition/pass progress inside a
	// QuerySnapshot.
	WorkerProgress = obs.WorkerProgress
	// NodeStats holds one measure node's per-node engine stats.
	NodeStats = obs.NodeStats
	// ArcStats holds per-arc watermark behavior inside NodeStats.
	ArcStats = obs.ArcStats
)

// InflightQueries snapshots the process-global registry of running
// queries, sorted by query ID. Progress per query is monotonically
// non-decreasing across successive snapshots.
func InflightQueries() []QuerySnapshot {
	return obs.DefaultInflight.Snapshot()
}
