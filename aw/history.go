package aw

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"awra/internal/exec/scan"
	"awra/internal/obs"
	"awra/internal/obs/flight"
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
// JSONL log of finished query attempts, a measured-statistics store
// derived from it, and latency/throughput histograms aggregated across
// runs. The log is also the flight recorder's persistence: a pinned
// attempt's line carries its span tree, and OpenHistory restores those
// attempt chains into the flight ring.
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
	log   *qlog.Log
	store *qlog.Store
	// rec aggregates the cross-run histograms (query/phase latency,
	// rows/sec); replayed on open so percentiles survive restarts.
	rec *obs.Recorder

	mu     sync.Mutex
	recent []*HistoryRecord // oldest first, capped at historyRecent
	total  int64            // all records seen (replayed + appended)
}

// OpenHistory opens (creating if needed) a history directory and
// replays its log once: the measured-statistics store, the recent-run
// ring, and the latency histograms all resume where the last process
// left off, and pinned traces return to the flight ring, so
// /debug/aw/traces/{id} answers for past slow or failed queries at
// once. The separate pinned-trace log older builds kept beside it is
// neither read nor deleted.
func OpenHistory(dir string) (*History, error) {
	l, err := qlog.Open(dir)
	if err != nil {
		return nil, err
	}
	h := &History{log: l, store: qlog.NewStore(), rec: obs.New()}
	// Span-bearing lines are pinned attempts: group them by trace ID
	// into attempt chains, oldest first, and restore each chain whole.
	chains := map[string][]HistoryRecord{}
	var order []string
	if _, err := qlog.Replay(dir, func(r *HistoryRecord) {
		if r.Span != nil && r.TraceID != "" {
			if _, seen := chains[r.TraceID]; !seen {
				order = append(order, r.TraceID)
			}
			chains[r.TraceID] = append(chains[r.TraceID], *r)
			r.Span = nil
		}
		h.absorb(r)
	}); err != nil {
		l.Close()
		return nil, err
	}
	for _, id := range order {
		flight.Default.Restore(chains[id])
	}
	return h, nil
}

// absorb folds one record into the in-memory views (store, ring,
// histograms) without touching the log. A record carrying the
// RequestID of an earlier absorbed record supersedes it: a client
// that resends the same request ID keeps one entry (the final outcome)
// in the recent ring and the total. The dedup window is the ring;
// cross-run histograms still observe every run, since each run's
// latency was really paid.
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
	if r.Records > 0 && r.DurationUs > 0 {
		h.rec.Histogram(obs.HRowsPerSec, "engine", r.Engine).
			Observe(r.Records * 1e6 / r.DurationUs)
	}
}

// Append is the one finisher of a query attempt. It commits r to the
// flight recorder under r.TraceID — on a nil History too — then
// persists r as one history line and folds it into the in-memory
// views. The line keeps r's span tree only when the recorder pinned the
// trace, so healthy runs log no spans while pinned traces survive a
// restart; the in-memory views keep none. Append owns r. Callers treat
// it as best effort: a full disk must not fail a finished query.
func (h *History) Append(r *HistoryRecord) error {
	if r == nil {
		return nil
	}
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	pinned := flight.Default.Commit(r)
	if h == nil {
		return nil
	}
	if !pinned {
		r.Span = nil
	}
	err := h.log.Append(r)
	r.Span = nil
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

// Close closes the underlying log. Nil-safe.
func (h *History) Close() error {
	if h == nil {
		return nil
	}
	return h.log.Close()
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
			(time.Duration(r.DurationUs) * time.Microsecond).String(), r.Records, label)
	}
	return b.String()
}

// probeBytes is how much of each end of a collection file
// CollectionFingerprint hashes: with the size and mtime it catches every
// append and an equal-length rewrite that keeps the mtime, without
// reading the whole file.
const probeBytes = 64 << 10

// probeBufs holds CollectionFingerprint's read buffers. crc32.Update
// reaches its kernel through a function value, so a buffer declared in
// the function escapes to the heap: 64 KiB a call on the serve path.
var probeBufs = sync.Pool{New: func() any { return new([probeBytes]byte) }}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CollectionFingerprint names the state of the collection a query runs
// against. It is the collection's one identity: the CollectionFP of
// history records, the key of measured statistics, and the state a
// serve cache entry answers for. A file input hashes its absolute path,
// size and mtime and a CRC-32C of its first and last 64 KiB, so an
// append, a rewrite or an equal-length edit under an unchanged mtime
// all change it. It reads through the OS, not the engines' swappable
// file system, so injected storage faults hit query execution and never
// the identity. An in-memory input gets a length tag, mem-N: different
// slices of equal length collide, which is acceptable for advisory
// statistics. A file that cannot be read returns the error.
func CollectionFingerprint(in Input) (string, error) {
	if in.path == "" {
		return fmt.Sprintf("mem-%d", len(in.recs)), nil
	}
	abs, err := filepath.Abs(in.path)
	if err != nil {
		return "", err
	}
	f, err := os.Open(in.path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	buf := probeBufs.Get().(*[probeBytes]byte)
	defer probeBufs.Put(buf)
	n, err := f.ReadAt(buf[:], 0)
	if err != nil && err != io.EOF {
		return "", err
	}
	sum := crc32.Update(0, castagnoli, buf[:n])
	if tail := st.Size() - probeBytes; tail > 0 {
		if n, err = f.ReadAt(buf[:], tail); err != nil && err != io.EOF {
			return "", err
		}
		sum = crc32.Update(sum, castagnoli, buf[:n])
	}
	return fmt.Sprintf("f-%08x-%x-%x-%08x", crc32.Checksum([]byte(abs), castagnoli), st.Size(), st.ModTime().UnixNano(), sum), nil
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

// buildRecord assembles the record of one finished attempt from the
// collection identity the run read before it started, the query span's
// subtree, the guard's resource stats, and the engine's stats with
// their per-node actuals (res is nil when the run failed).
func buildRecord(c *Compiled, collectionFP string, o *QueryOptions, g *qguard.Guard, qSpan *obs.Span, engine Engine, res *scan.Result, runErr error) *HistoryRecord {
	rec := &HistoryRecord{
		Time:         time.Now(),
		RequestID:    o.RequestID,
		TraceID:      o.TraceID,
		Label:        strings.Join(c.Outputs(), ","),
		QueryFP:      c.Fingerprint(),
		CollectionFP: collectionFP,
		Engine:       engine.String(),
	}
	rec.Outcome, rec.Error = OutcomeOf(runErr)
	if snap := qSpan.Snapshot(); snap != nil {
		rec.DurationUs = snap.DurationUs
		rec.SortKey = snap.Attrs["sort_key"]
		rec.Phases = phaseDurations(snap)
		rec.Span = snap
	}
	if g != nil {
		gs := g.Stats()
		rec.ResultRows = gs.ResultRows
		rec.SpillBytes = gs.SpillBytes
		rec.CorruptRows = gs.CorruptRows
	}
	var actual map[string]obs.NodeStats
	if res != nil {
		// The node list lives on folded, as the profiles in rec.Nodes.
		rec.EngineStats, rec.EngineStats.Nodes = res.Stats, nil
		actual = res.Stats.NodeTotals()
	}

	// Per-node estimate-vs-actual profile, keyed by content signature
	// so the measured store can feed later plans. Estimate provenance
	// mirrors what plan.Build decided for this run.
	st := planStats(c, collectionFP, o)
	for i, m := range c.Measures {
		np := qlog.NodeProfile{NodeStats: actual[m.Name], Sig: c.NodeSignature(i), EstSource: st.SourceLabel()}
		np.Node = m.Name
		if st.Measured != nil {
			if _, ok := st.Measured(np.Sig); ok {
				np.EstSource = SourceMeasured
			}
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
