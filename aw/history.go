package aw

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"awra/internal/obs"
	"awra/internal/qguard"
	"awra/internal/qlog"
)

// HistoryRecord is one completed query run in the persistent history
// log (see internal/qlog for the field semantics).
type HistoryRecord = qlog.Record

// History outcome labels (HistoryRecord.Outcome).
const (
	OutcomeOK       = qlog.OutcomeOK
	OutcomeCanceled = qlog.OutcomeCanceled
	OutcomeBudget   = qlog.OutcomeBudget
	OutcomeError    = qlog.OutcomeError
	// OutcomeCacheHit marks a query answered from the serve layer's
	// result cache. It never feeds measured statistics (the store only
	// folds OutcomeOK), so zero-work cache hits cannot skew per-node
	// cardinalities.
	OutcomeCacheHit = qlog.OutcomeCacheHit
)

// historyRecent bounds the in-memory ring of recent runs kept for
// reporting; the on-disk log holds more (until rotation drops it).
const historyRecent = 512

// History is the persistent query-history subsystem: an append-only
// JSONL log of completed runs, a measured-statistics store derived
// from it, and latency/throughput histograms aggregated across runs.
//
// Open it once per process (OpenHistory) and share it through
// ExecOptions.History: every Run/RunCompiled completion — success,
// budget trip, cancellation, or error — appends one record, and the
// planner consults the store so a workflow's second run on the same
// collection plans from measured cell counts instead of estimates
// (EXPLAIN then labels those nodes "measured").
//
// All methods are safe for concurrent use; a nil *History disables
// history without branching at call sites.
type History struct {
	log *qlog.Log
	// traces is the pinned-trace sibling log (traces.jsonl): full
	// flight-recorder entries for errored, retried, budget-tripped, and
	// slow queries, replayed into the flight ring on open.
	traces *qlog.Log
	store  *qlog.Store
	// rec aggregates the cross-run histograms (query/phase latency,
	// rows/sec); replayed on open so percentiles survive restarts.
	rec *obs.Recorder

	mu     sync.Mutex
	recent []*HistoryRecord // oldest first, capped at historyRecent
	total  int64            // all records seen (replayed + appended)
}

// OpenHistory opens (creating if needed) a history directory and
// replays its log: the measured-statistics store, the recent-run ring,
// and the latency histograms all resume where the last process left
// off.
func OpenHistory(dir string) (*History, error) {
	l, err := qlog.Open(dir)
	if err != nil {
		return nil, err
	}
	tl, err := qlog.OpenNamed(dir, tracesLogName)
	if err != nil {
		l.Close()
		return nil, err
	}
	h := &History{log: l, traces: tl, store: qlog.NewStore(), rec: obs.New()}
	if _, err := qlog.Replay(dir, func(r *HistoryRecord) { h.absorb(r) }); err != nil {
		l.Close()
		tl.Close()
		return nil, err
	}
	// Pinned flight traces survive restarts: restore them into the
	// in-memory ring so /debug/aw/traces/{id} answers for past slow or
	// failed queries immediately.
	replayTraces(dir)
	return h, nil
}

// absorb folds one record into the in-memory views (store, ring,
// histograms) without touching the log. A record carrying the
// RequestID of an earlier absorbed record supersedes it: the retried
// request keeps one entry (the final outcome) in the recent ring and
// the total, so server-side retries never double-log history. The
// dedup window is the ring; cross-run histograms still observe every
// attempt, since each attempt's latency was really paid.
func (h *History) absorb(r *HistoryRecord) {
	h.store.Observe(r)
	h.mu.Lock()
	if r.RequestID != "" {
		for i := len(h.recent) - 1; i >= 0; i-- {
			if h.recent[i].RequestID == r.RequestID {
				h.recent = append(h.recent[:i], h.recent[i+1:]...)
				h.total--
				break
			}
		}
	}
	h.total++
	h.recent = append(h.recent, r)
	if len(h.recent) > historyRecent {
		h.recent = h.recent[len(h.recent)-historyRecent:]
	}
	h.mu.Unlock()
	h.rec.Histogram(obs.HQueryLatencyUs, "engine", r.Engine).Observe(r.DurationUs)
	for phase, us := range r.Phases {
		h.rec.Histogram(obs.HPhaseLatencyUs, "phase", phase).Observe(us)
	}
	if r.RecordsScanned > 0 && r.DurationUs > 0 {
		h.rec.Histogram(obs.HRowsPerSec, "engine", r.Engine).
			Observe(r.RecordsScanned * 1e6 / r.DurationUs)
	}
}

// Append persists one record and folds it into the in-memory views.
// Nil-safe (drops the record).
func (h *History) Append(r *HistoryRecord) error {
	if h == nil || r == nil {
		return nil
	}
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	err := h.log.Append(r)
	h.absorb(r)
	return err
}

// Dir returns the history directory. Nil-safe (empty).
func (h *History) Dir() string {
	if h == nil {
		return ""
	}
	return h.log.Dir()
}

// Close closes the underlying logs. Nil-safe.
func (h *History) Close() error {
	if h == nil {
		return nil
	}
	err := h.log.Close()
	if h.traces != nil {
		if terr := h.traces.Close(); err == nil {
			err = terr
		}
	}
	return err
}

// Len returns the total number of records seen (replayed plus
// appended). Nil-safe (0).
func (h *History) Len() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// MeasuredStats returns the number of (collection, node) measured
// statistics available to the planner. Nil-safe (0).
func (h *History) MeasuredStats() int {
	if h == nil {
		return 0
	}
	return h.store.Len()
}

// Recent returns up to n records, newest first. Nil-safe (nil).
func (h *History) Recent(n int) []*HistoryRecord {
	if h == nil || n <= 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if n > len(h.recent) {
		n = len(h.recent)
	}
	out := make([]*HistoryRecord, n)
	for i := 0; i < n; i++ {
		out[i] = h.recent[len(h.recent)-1-i]
	}
	return out
}

// LatencySummary is the per-engine latency distribution derived from
// the history histograms, in microseconds.
type LatencySummary struct {
	Engine string  `json:"engine"`
	Count  int64   `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
}

// HistorySummary is the JSON payload of /debug/aw/history: recent runs
// plus per-engine latency percentiles.
type HistorySummary struct {
	Dir           string           `json:"dir,omitempty"`
	TotalRuns     int64            `json:"total_runs"`
	MeasuredStats int              `json:"measured_stats"`
	Latency       []LatencySummary `json:"latency,omitempty"`
	Recent        []*HistoryRecord `json:"recent,omitempty"`
}

// Summary builds the reporting view: the newest n records and the
// per-engine p50/p95/p99 query latencies. Nil-safe (zero summary).
func (h *History) Summary(n int) HistorySummary {
	if h == nil {
		return HistorySummary{}
	}
	s := HistorySummary{Dir: h.Dir(), TotalRuns: h.Len(), MeasuredStats: h.MeasuredStats(), Recent: h.Recent(n)}
	for _, hs := range h.rec.HistogramSnapshots() {
		if hs.Name != obs.HQueryLatencyUs {
			continue
		}
		s.Latency = append(s.Latency, LatencySummary{
			Engine: hs.Labels["engine"],
			Count:  hs.Count,
			P50Us:  hs.Quantile(0.50),
			P95Us:  hs.Quantile(0.95),
			P99Us:  hs.Quantile(0.99),
		})
	}
	return s
}

// WriteJSON writes the summary (newest n runs + latency percentiles)
// as indented JSON — the /debug/aw/history payload. Nil-safe (writes
// an empty summary).
func (h *History) WriteJSON(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h.Summary(n))
}

// WritePrometheus exports the history's cross-run histograms in the
// Prometheus text format. Nil-safe (writes nothing).
func (h *History) WritePrometheus(w io.Writer) error {
	if h == nil {
		return nil
	}
	return h.rec.WritePrometheus(w)
}

// FormatRecent renders the newest n runs as a human-readable table,
// newest first. Nil-safe (empty).
func (h *History) FormatRecent(n int) string {
	recs := h.Recent(n)
	if len(recs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-10s %-9s %10s %12s  %s\n", "TIME", "ENGINE", "OUTCOME", "DURATION", "RECORDS", "QUERY")
	for _, r := range recs {
		label := r.Label
		if label == "" {
			label = r.QueryFP
		}
		fmt.Fprintf(&b, "%-20s %-10s %-9s %10s %12d  %s\n",
			r.Time.Format("2006-01-02 15:04:05"), r.Engine, r.Outcome,
			(time.Duration(r.DurationUs) * time.Microsecond).String(), r.RecordsScanned, label)
	}
	return b.String()
}

// CollectionFingerprint identifies the dataset a query runs against —
// the CollectionFP of its history records. The serve layer uses it to
// stamp synthesized records (cache hits, shared fan-outs) consistently
// with the records real runs write.
func CollectionFingerprint(in Input) string { return collectionFingerprint(in) }

// collectionFingerprint identifies the dataset a query ran against.
// File inputs hash the absolute path plus size and mtime, so the
// fingerprint changes when the file is rewritten (stale measurements
// stop matching); in-memory inputs get a length-based tag — cheap and
// deterministic, but different slices of equal length collide, which
// is acceptable for advisory statistics.
func collectionFingerprint(in Input) string {
	if in.path == "" {
		return fmt.Sprintf("mem-%d", len(in.recs))
	}
	abs, err := filepath.Abs(in.path)
	if err != nil {
		abs = in.path
	}
	if st, err := os.Stat(in.path); err == nil {
		return "f-" + hashString(fmt.Sprintf("%s|%d|%d", abs, st.Size(), st.ModTime().UnixNano()))
	}
	return "f-" + hashString(abs)
}

func hashString(s string) string {
	f := fnv.New64a()
	f.Write([]byte(s))
	return fmt.Sprintf("%016x", f.Sum64())
}

// OutcomeOf classifies a run error into a history outcome (OutcomeOK,
// OutcomeCanceled, OutcomeBudget or OutcomeError) and its message.
// Every site that records or counts a finished query uses it.
func OutcomeOf(err error) (outcome, msg string) {
	switch {
	case err == nil:
		return qlog.OutcomeOK, ""
	case errors.Is(err, ErrCanceled), errors.Is(err, ErrDeadlineExceeded):
		return qlog.OutcomeCanceled, err.Error()
	case errors.Is(err, ErrBudgetExceeded):
		return qlog.OutcomeBudget, err.Error()
	default:
		return qlog.OutcomeError, err.Error()
	}
}

// buildRecord assembles the history record for one finished run from
// the query span's subtree, the guard's resource stats, and the
// recorder's per-node actuals.
func buildRecord(c *Compiled, in Input, o *QueryOptions, g *qguard.Guard, qSpan *obs.Span, engine Engine, runErr error) *HistoryRecord {
	rec := &HistoryRecord{
		Time:         time.Now(),
		RequestID:    o.RequestID,
		TraceID:      o.TraceID,
		Label:        strings.Join(c.Outputs(), ","),
		QueryFP:      c.Fingerprint(),
		CollectionFP: collectionFingerprint(in),
		Engine:       engine.String(),
	}
	rec.Outcome, rec.Error = OutcomeOf(runErr)
	if snap := qSpan.Snapshot(); snap != nil {
		rec.DurationUs = snap.DurationUs
		rec.SortKey = snap.Attrs["sort_key"]
		rec.Phases = phaseDurations(snap)
	}
	if g != nil {
		gs := g.Stats()
		rec.ResultRows = gs.ResultRows
		rec.SpillBytes = gs.SpillBytes
		rec.CorruptRows = gs.CorruptRows
	}
	rec.RecordsScanned = o.Recorder.Counter(obs.MRecordsScanned).Value()

	// Per-node estimate-vs-actual profile, keyed by content signature
	// so the measured store can feed later plans. Estimate provenance
	// mirrors what plan.Build decided for this run.
	st := planStats(c, in, o)
	byName := map[string]*obs.NodeStats{}
	nodes := o.Recorder.NodeStats()
	for i := range nodes {
		byName[nodes[i].Node] = &nodes[i]
	}
	for i, m := range c.Measures {
		ns := byName[m.Name]
		if ns == nil && strings.HasPrefix(m.Name, "__") {
			// Multipass re-declares hidden bases under an exported name.
			ns = byName["hidden"+m.Name[2:]]
		}
		np := qlog.NodeProfile{Node: m.Name, Sig: c.NodeSignature(i), EstSource: st.SourceLabel()}
		if st.Measured != nil {
			if _, ok := st.Measured(np.Sig); ok {
				np.EstSource = SourceMeasured
			}
		}
		if ns != nil {
			np.EstCells = ns.EstCells
			np.CellsFinalized = ns.CellsFinalized
			np.LiveCellsHWM = ns.LiveCellsHWM
			np.RecordsIn = ns.RecordsIn
			np.RecordsOut = ns.RecordsOut
		}
		rec.Nodes = append(rec.Nodes, np)
	}
	return rec
}

// phaseDurations flattens the query span's subtree into summed
// durations per phase name (the query span itself excluded).
func phaseDurations(snap *obs.SpanSnapshot) map[string]int64 {
	out := map[string]int64{}
	var walk func(s *obs.SpanSnapshot)
	walk = func(s *obs.SpanSnapshot) {
		for _, c := range s.Children {
			out[c.Name] += c.DurationUs
			walk(c)
		}
	}
	walk(snap)
	if len(out) == 0 {
		return nil
	}
	return out
}
