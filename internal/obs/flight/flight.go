// Package flight is the query flight recorder: a bounded in-memory
// ring of completed query traces with tail-based retention. A trace is
// a chain of qlog.Records — one per execution attempt, each with its
// finalized span tree, per-node estimate-vs-actual profile, guard
// stats, engine and outcome — keyed by a stable trace ID that callers
// can supply (e.g. ingested from a W3C traceparent header) or let the
// library generate.
//
// Tail-based retention means the interesting tail is pinned: errored,
// canceled, budget-tripped, retried, and slow traces survive eviction
// preferentially, while healthy fast queries are probabilistically
// sampled so steady-state memory and publishing overhead stay near
// zero. "Slow" is judged against an operator-supplied threshold (the
// serve layer feeds its overload controller's sliding-window latency)
// with the ring's own sliding-window p99 as the fallback, so the
// recorder self-calibrates even without a serving layer.
//
// The ring is the queryable runtime artifact behind /debug/aw/traces,
// /debug/aw/traces/{id}, and /debug/aw/slow. Its persistence is the
// query history: a pinned attempt's history line carries its span
// tree, and replaying the history restores those chains (Restore), so
// post-mortems survive restarts.
package flight

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"

	"awra/internal/qlog"
)

// Pin reasons recorded on a retained trace.
const (
	PinError   = "error"  // outcome error
	PinBudget  = "budget" // budget-tripped
	PinCancel  = "canceled"
	PinRetried = "retried" // more than one run under this trace ID
	PinSlow    = "slow"    // duration at or above the slow threshold
)

// Trace is one query's flight record. The embedded Record is the
// latest record committed under the trace ID, without its span tree,
// node profile and phases (those stay on the attempts): its fields are
// the trace's top-level view. Attempts is the chain of engine runs,
// oldest first — requests that share a trace ID (a client resending
// under one W3C traceparent) are one trace with N attempts, not N
// traces. A query served from the result cache commits one record and
// no attempts.
type Trace struct {
	qlog.Record
	Pinned     bool     `json:"pinned,omitempty"`
	PinReasons []string `json:"pin_reasons,omitempty"`
	// Sampled marks a healthy fast trace retained by probabilistic
	// sampling rather than pinning.
	Sampled  bool          `json:"sampled,omitempty"`
	Attempts []qlog.Record `json:"attempts,omitempty"`
}

// Summary is the list-view row of /debug/aw/traces and /debug/aw/slow:
// the trace's record header and retention flags, without its attempt
// chain, plus the attempt count and the trace's debug-endpoint path.
type Summary struct {
	Trace
	Attempts int    `json:"attempts"`
	Path     string `json:"path"`
}

// Page is the JSON envelope of /debug/aw/traces and /debug/aw/slow: the
// ring's size, its effective slow threshold, and one list of rows. List
// and Slow return non-nil rows on a non-nil ring, so an empty page
// encodes its traces as [].
type Page struct {
	Total           int       `json:"total"`
	SlowThresholdUs int64     `json:"slow_threshold_us,omitempty"`
	Traces          []Summary `json:"traces"`
}

// TracePath returns the debug-endpoint path for a trace ID — the
// link-ready form surfaced by in-flight snapshots and list views.
func TracePath(id string) string { return "/debug/aw/traces/" + id }

// DefaultCapacity bounds the default ring.
const DefaultCapacity = 256

// DefaultSampleN retains 1 in N healthy fast traces.
const DefaultSampleN = 16

// slowWindow is the ring's internal latency window for the p99
// fallback threshold; minSlowWindow gates it until it has signal.
const (
	slowWindow    = 256
	minSlowWindow = 32
)

// Ring is a bounded trace store with tail-based retention. All methods
// are safe for concurrent use and nil-safe (a nil ring drops commits
// and reports nothing), so callers thread it without branching.
type Ring struct {
	mu      sync.Mutex
	cap     int
	sampleN int64
	seq     int64 // commit counter driving deterministic sampling
	traces  map[string]*Trace
	order   []string // insertion order, oldest first
	// slowUs is the operator-supplied slow threshold (0 = unset); win
	// is the sliding duration window behind the p99 fallback.
	slowUs int64
	win    []int64
	pos    int
}

// NewRing builds a ring retaining up to capacity traces and sampling 1
// in sampleN healthy fast queries (0 picks the defaults).
func NewRing(capacity int, sampleN int64) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if sampleN <= 0 {
		sampleN = DefaultSampleN
	}
	return &Ring{
		cap:     capacity,
		sampleN: sampleN,
		traces:  make(map[string]*Trace),
		win:     make([]int64, 0, slowWindow),
	}
}

// Default is the process-global flight recorder, mirroring
// obs.DefaultInflight: every aw.Run* commits here.
var Default = NewRing(0, 0)

// NewTraceID returns a fresh 32-hex-digit (16-byte) trace ID, the W3C
// trace-context format.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant non-zero
		// ID keeps the recorder functional (traces merge, nothing panics).
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}

// SetSlowThreshold sets the operator slow threshold in microseconds
// (0 reverts to the ring's internal p99 fallback). The serve layer
// feeds it from the overload controller's sliding latency window.
func (r *Ring) SetSlowThreshold(us int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slowUs = us
	r.mu.Unlock()
}

// SlowThresholdUs returns the effective slow threshold: the operator
// value if set, else the internal window p99, else 0 (no slow pinning
// yet).
func (r *Ring) SlowThresholdUs() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slowThresholdLocked()
}

func (r *Ring) slowThresholdLocked() int64 {
	if r.slowUs > 0 {
		return r.slowUs
	}
	n := len(r.win)
	if n < minSlowWindow {
		return 0
	}
	s := make([]int64, n)
	copy(s, r.win)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := n * 99 / 100
	if idx >= n {
		idx = n - 1
	}
	return s[idx]
}

// Commit folds one finished record into the ring under its TraceID
// and reports whether the trace is pinned. The record becomes the
// trace's top-level view; an engine attempt (ServedFrom empty) also
// extends its attempt chain. A new trace is inserted, evicting the
// oldest unpinned entry when full, unless it is healthy, fast, and
// misses the sampling draw.
func (r *Ring) Commit(rec *qlog.Record) bool {
	if r == nil || rec == nil || rec.TraceID == "" {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	// Slide the duration window (every commit, pinned or not, so the
	// p99 fallback sees the true distribution).
	if len(r.win) < slowWindow {
		r.win = append(r.win, rec.DurationUs)
	} else {
		r.win[r.pos] = rec.DurationUs
	}
	r.pos = (r.pos + 1) % slowWindow

	t := r.traces[rec.TraceID]
	fresh := t == nil
	if fresh {
		t = &Trace{}
	}
	t.fold(rec)
	if th := r.slowThresholdLocked(); th > 0 && rec.DurationUs >= th {
		t.pin(PinSlow)
	}
	if fresh {
		if !t.Pinned && !r.sampleLocked() {
			return false
		}
		t.Sampled = !t.Pinned
		r.insertLocked(t)
	} else if t.Pinned {
		t.Sampled = false
	}
	return t.Pinned
}

// Restore installs a replayed attempt chain — the records of one
// trace, oldest first, as the history log persisted them — replacing
// any trace the ring holds under the same ID; it never appends to one.
// No sampling, no window update. Only pinned attempts are persisted
// with the span trees replay restores from, so the trace is pinned;
// its reasons are re-derived from the chain, and a chain that nothing
// else explains was pinned for being slow.
func (r *Ring) Restore(chain []qlog.Record) {
	if r == nil || len(chain) == 0 || chain[0].TraceID == "" {
		return
	}
	t := &Trace{}
	for i := range chain {
		t.fold(&chain[i])
	}
	if !t.Pinned {
		t.pin(PinSlow)
	}
	r.mu.Lock()
	if _, ok := r.traces[t.TraceID]; ok {
		r.traces[t.TraceID] = t
	} else {
		r.insertLocked(t)
	}
	r.mu.Unlock()
}

// fold makes rec the trace's top-level view, appends it to the attempt
// chain when it is an engine attempt, and pins the trace for a bad
// outcome or a second run under its ID.
func (t *Trace) fold(rec *qlog.Record) {
	t.Record = *rec
	t.Nodes, t.Phases, t.Span = nil, nil, nil
	if rec.ServedFrom == "" {
		t.Attempts = append(t.Attempts, *rec)
	}
	switch rec.Outcome {
	case qlog.OutcomeError:
		t.pin(PinError)
	case qlog.OutcomeBudget:
		t.pin(PinBudget)
	case qlog.OutcomeCanceled:
		t.pin(PinCancel)
	}
	if len(t.Attempts) > 1 {
		t.pin(PinRetried)
	}
}

// pin adds a pin reason. Pinning is sticky: reasons accumulate, a
// pinned trace never unpins.
func (t *Trace) pin(reason string) {
	for _, have := range t.PinReasons {
		if have == reason {
			return
		}
	}
	t.PinReasons = append(t.PinReasons, reason)
	t.Pinned = true
}

// sampleLocked draws the deterministic 1-in-N retention lot for a
// healthy fast trace. The very first commit always wins the draw, so a
// process that runs one query (the CLI case) retains its trace.
func (r *Ring) sampleLocked() bool {
	if r.sampleN <= 1 {
		return true
	}
	return r.seq%r.sampleN == 1
}

// insertLocked adds a new trace, evicting to capacity: the oldest
// unpinned trace first; if everything is pinned, the oldest pinned one
// (bounded memory wins over retention).
func (r *Ring) insertLocked(t *Trace) {
	r.traces[t.TraceID] = t
	r.order = append(r.order, t.TraceID)
	for len(r.order) > r.cap {
		victim := -1
		for i, id := range r.order {
			if !r.traces[id].Pinned {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0
		}
		delete(r.traces, r.order[victim])
		r.order = append(r.order[:victim], r.order[victim+1:]...)
	}
}

func copyTrace(t *Trace) Trace {
	c := *t
	c.Attempts = append([]qlog.Record(nil), t.Attempts...)
	c.PinReasons = append([]string(nil), t.PinReasons...)
	return c
}

// Get returns a private copy of the trace with the given ID.
func (r *Ring) Get(id string) (Trace, bool) {
	if r == nil {
		return Trace{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.traces[id]
	if !ok {
		return Trace{}, false
	}
	return copyTrace(t), true
}

// Len returns the number of retained traces.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

func summarize(t *Trace) Summary {
	s := Summary{Trace: *t, Attempts: len(t.Attempts), Path: TracePath(t.TraceID)}
	s.Trace.Attempts = nil
	s.PinReasons = append([]string(nil), t.PinReasons...)
	return s
}

// List returns up to n trace summaries, newest first (n <= 0 = all).
func (r *Ring) List(n int) []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.order) {
		n = len(r.order)
	}
	out := make([]Summary, 0, n)
	for i := len(r.order) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, summarize(r.traces[r.order[i]]))
	}
	return out
}

// Slow returns up to n retained traces at or above the effective slow
// threshold, slowest first — the slow-query log. With no threshold
// signal yet it returns an empty log, not a noisy one.
func (r *Ring) Slow(n int) []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	th := r.slowThresholdLocked()
	out := []Summary{}
	if th > 0 {
		for _, id := range r.order {
			if t := r.traces[id]; t.DurationUs >= th {
				out = append(out, summarize(t))
			}
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DurationUs > out[j].DurationUs })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
