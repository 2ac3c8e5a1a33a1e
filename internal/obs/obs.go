// Package obs is the zero-dependency observability layer shared by
// every evaluator: hierarchical spans covering the query lifecycle
// (query -> optimize -> sort -> runs/merge -> scan -> finalize ->
// combine), a registry of named counters and gauges, and exporters
// (JSON snapshot, Prometheus text format, and a human-readable span
// tree).
//
// The paper's evaluation (Section 7) is built on per-phase costs —
// sort vs. scan time, live-cell footprint, early-flush effectiveness —
// and every engine here reports those costs through one shared
// vocabulary instead of per-engine ad-hoc structs.
//
// A nil *Recorder is a valid no-op recorder: every method on Recorder,
// Span, Counter, and Gauge is nil-safe, so instrumented code threads a
// possibly-nil recorder without branching and hot loops pay one
// pointer check at most. Engines keep per-record tallies in plain
// local fields, so instrumentation never touches the scan loop: a run's
// numbers — the engine vocabulary and the reader, cell-table, shard and
// merge tallies — come back as one EngineStats value that the entry
// point publishes once.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Standard metric names. Every engine publishes the same vocabulary so
// snapshots are comparable across evaluators and across PRs.
const (
	// MRecordsScanned counts fact records consumed by the scan phase.
	MRecordsScanned = "records_scanned"
	// MCellsCreated counts hash-table entries (live cells) created.
	MCellsCreated = "cells_created"
	// MCellsFinalized counts cells flushed into output tables.
	MCellsFinalized = "cells_finalized"
	// MFlushBatches counts watermark-triggered finalization batches.
	MFlushBatches = "flush_batches"
	// MWatermarkAdvances counts watermark threshold advances across
	// all arcs of all measure nodes.
	MWatermarkAdvances = "watermark_advances"
	// MSpillEvents counts out-of-core events: external-sort runs
	// written to disk, hash-table spills, and spooled intermediates.
	MSpillEvents = "spill_events"
	// MSpillBytes counts the bytes those events wrote.
	MSpillBytes = "spill_bytes"
	// MSpilledEntries counts hash entries serialized by spills.
	MSpilledEntries = "spilled_entries"
	// MHeapComparisons counts comparisons made by the external merge's
	// k-way heap.
	MHeapComparisons = "heap_comparisons"
	// MSortRuns counts sorted runs produced by external sorts.
	MSortRuns = "sort_runs"
	// MPasses counts sort/scan passes (multi-pass engine).
	MPasses = "passes"
	// MFactScans counts end-to-end reads of the fact file
	// (relational baseline).
	MFactScans = "fact_scans"
	// MOptKeysScored counts candidate sort keys the optimizer scored.
	MOptKeysScored = "opt_keys_scored"
	// MQueriesCanceled counts queries that ended with cancellation or a
	// deadline instead of completing.
	MQueriesCanceled = "queries_canceled"
	// MRowsCorruptSkipped counts the distinct checksum-failing rows a
	// query skipped in degraded mode (QueryOptions.SkipCorruptRows): a
	// row that several reads of the file skip counts once.
	MRowsCorruptSkipped = "rows_corrupt_skipped"
	// MBudgetRejections counts queries rejected by a hard resource
	// guardrail (live cells, result rows, spill bytes).
	MBudgetRejections = "budget_rejections"
	// MFallbackSwitches counts EngineAuto runs that fell back from
	// sort/scan to multi-pass after the live-cell guardrail tripped.
	MFallbackSwitches = "fallback_engine_switches"
	// MShardsPlanned counts shards planned by the sharded sort/scan
	// engine.
	MShardsPlanned = "shards_planned"

	// Hot-path instrumentation family: batch-granularity tallies from
	// the chunked scan reader (internal/exec/scan) and the open-
	// addressing cell tables (internal/exec/cellmap). They travel in a
	// run's EngineStats, tallied in plain struct fields — the scan loop
	// itself never touches the recorder.

	// MScanChunks counts the fills of batched fact reads: one per scan
	// batch, one per sort arena read.
	MScanChunks = "scan_chunks"
	// MScanBytes counts bytes those fills read.
	MScanBytes = "scan_bytes"
	// MCellTableGrows counts cell-table probe-index growths (first-
	// segment doublings plus segment splits) across all measure nodes.
	MCellTableGrows = "cellmap_grows"

	// GScanBatchFill is the average fill ratio in permille: bytes read
	// over the bytes the fills had room for (1000 = every fill full).
	GScanBatchFill = "scan_batch_fill_permille"
	// GCellProbeHWM is the longest linear-probe walk any cell-table
	// insert performed.
	GCellProbeHWM = "cellmap_probe_len_hwm"
	// GCellArenaBytes is the peak cell-key arena footprint in bytes,
	// summed across measure nodes.
	GCellArenaBytes = "cellmap_arena_bytes_hwm"

	// Serve metric family: published by the always-on query service
	// (internal/serve) so its admission, degradation, and drain
	// behavior is observable through the same registry as engine
	// metrics.

	// MServeRequests counts query requests received (before admission).
	MServeRequests = "serve_requests"
	// MServeAdmitted counts requests that passed admission control.
	MServeAdmitted = "serve_admitted"
	// MServeQueued counts requests that waited in the admission queue
	// before being admitted or shed.
	MServeQueued = "serve_queued"
	// MServeShed counts requests rejected by admission control (tenant
	// limit, full queue, queue-wait timeout, shedding, or draining) —
	// the 429/503 responses.
	MServeShed = "serve_shed"
	// MServeDegraded counts queries executed under overload-tightened
	// budgets (the sortscan→multipass degradation ladder).
	MServeDegraded = "serve_degraded_runs"
	// MServeDrainCanceled counts in-flight queries canceled because the
	// drain deadline lapsed before they finished.
	MServeDrainCanceled = "serve_drain_canceled"

	// MServeCacheHits counts queries answered from the serve result
	// cache without executing (they bypass admission slots entirely).
	MServeCacheHits = "serve_cache_hits"
	// MServeCacheMisses counts cache lookups that found no valid entry
	// (including entries invalidated by a changed input file).
	MServeCacheMisses = "serve_cache_misses"
	// MServeCacheEvictions counts entries evicted by the LRU/byte-budget
	// policy (invalidations are counted separately).
	MServeCacheEvictions = "serve_cache_evictions"
	// MServeCacheInvalidations counts entries dropped because their
	// collection's file fingerprint changed.
	MServeCacheInvalidations = "serve_cache_invalidations"

	// GServeCacheEntries is the current number of cached result sets.
	GServeCacheEntries = "serve_cache_entries"
	// GServeCacheBytes is the estimated byte footprint of cached tables.
	GServeCacheBytes = "serve_cache_bytes"

	// GServeActive is the number of admitted queries currently running.
	GServeActive = "serve_active_queries"
	// GServeQueueDepth is the current admission-queue depth.
	GServeQueueDepth = "serve_queue_depth"
	// GServeOverloadLevel is the overload controller's current level
	// (0 = normal, 1 = degraded budgets, 2 = shedding).
	GServeOverloadLevel = "serve_overload_level"

	// GLiveCellsHWM is the high-water mark of simultaneously live hash
	// entries across all measure nodes.
	GLiveCellsHWM = "live_cells_hwm"
	// GHashBytesHWM is the high-water mark of estimated hash-table
	// bytes.
	GHashBytesHWM = "hashtable_bytes_hwm"
	// GOptBestBytes is the optimizer's estimated footprint of the
	// chosen plan.
	GOptBestBytes = "opt_best_bytes"
	// GShardSkew is the largest shard's record count over the mean
	// shard size, in permille (1000 = perfectly balanced), from the
	// sharded sort/scan split.
	GShardSkew = "shard_skew_ratio"
)

// Standard span names, mapping to the paper's evaluation phases (see
// DESIGN.md for the correspondence with Tables 7-8).
const (
	SpanQuery    = "query"    // whole evaluation
	SpanOptimize = "optimize" // Section 6 sort-order search
	SpanSort     = "sort"     // external sort (Table 7 line 2)
	SpanSortRuns = "runs"     // run generation
	SpanScan     = "scan"     // the streaming scan (Table 7 lines 3-7)
	SpanFinalize = "finalize" // end-of-stream flush (Table 7 line 8)
	SpanCombine  = "combine"  // composite/combine phase
	SpanSplit    = "split"    // shardscan's read, key encode and routing
	SpanShard    = "shard"    // one shardscan worker's sort/scan subtree
	SpanSpill    = "spill_merge"
	SpanPass     = "pass"    // one multipass sort/scan iteration
	SpanMeasure  = "measure" // one relational-baseline measure query
)

// Recorder collects spans and metrics for one query (or one process).
// The zero value is not usable; construct with New. A nil Recorder is
// a valid no-op recorder.
//
// A Recorder may be shared across goroutines: counters and gauges are
// atomic, and the span tree is guarded by one mutex (span creation and
// completion are phase-boundary events, never per-record).
type Recorder struct {
	mu   sync.Mutex
	root *Span
	reg  registry
	// shared, when non-nil, is the recorder owning the registry and
	// span tree this view writes into (set by At).
	shared *Recorder
}

// New creates an empty Recorder whose root span starts now.
func New() *Recorder {
	r := &Recorder{}
	r.root = &Span{rec: r, start: time.Now()}
	r.reg.init()
	return r
}

// Start opens a top-level span. Nil-safe.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	return r.root.Start(name)
}

// At returns a view of the recorder rooted at span s: it shares the
// metrics registry and the span tree, but Start creates children of s.
// Engines use it to nest their phase spans under a caller's span
// (e.g. each shardscan worker's sort/scan under that shard's span).
// Nil-safe; At(nil) returns r itself.
func (r *Recorder) At(s *Span) *Recorder {
	if r == nil || s == nil {
		return r
	}
	return &Recorder{root: s, shared: s.rec.owner()}
}

func (r *Recorder) owner() *Recorder {
	if r == nil {
		return nil
	}
	if r.shared != nil {
		return r.shared
	}
	return r
}

// Span is one timed phase. All methods are nil-safe.
type Span struct {
	rec      *Recorder
	parent   *Span
	name     string
	start    time.Time
	duration time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
	// total/done track work-unit progress (typically records; fixed
	// width rows make the total exact from the file size). Atomic so
	// scan loops can update them at guard strides without taking the
	// recorder mutex.
	total atomic.Int64
	done  atomic.Int64
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Start opens a child span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	r := s.rec
	child := &Span{rec: r, parent: s, name: name, start: time.Now()}
	r.mu.Lock()
	s.children = append(s.children, child)
	r.mu.Unlock()
	return child
}

// End closes the span, fixing its duration. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if !s.ended {
		s.duration = time.Since(s.start)
		s.ended = true
	}
	s.rec.mu.Unlock()
}

// Duration returns the span's duration: final if ended, the running
// elapsed time otherwise. Nil-safe (returns 0).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.ended {
		return s.duration
	}
	return time.Since(s.start)
}

// Name returns the span's name. Nil-safe.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetTotal declares the span's total amount of work in records (or
// other work units). Spans with a nonzero total contribute to in-flight
// progress reporting. Nil-safe.
func (s *Span) SetTotal(n int64) {
	if s == nil {
		return
	}
	s.total.Store(n)
}

// SetDone records absolute progress through the span's work. Scan
// loops call it at their existing guard strides (every 256 records),
// never per record. Nil-safe.
func (s *Span) SetDone(n int64) {
	if s == nil {
		return
	}
	s.done.Store(n)
}

// Progress returns (done, total) work units. Nil-safe (zeros).
func (s *Span) Progress() (done, total int64) {
	if s == nil {
		return 0, 0
	}
	return s.done.Load(), s.total.Load()
}

// SetAttr annotates the span. Later writes to the same key win.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}
