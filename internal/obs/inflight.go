package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Inflight is a registry of currently running queries. A process
// typically uses the package-global DefaultInflight; the aw layer
// registers every query there so operators can list live work via
// aw.InflightQueries() or the /debug/aw/queries endpoint.
//
// A registered query is its root span: the snapshot reads the engine
// and trace ID from the span's attrs, the elapsed time from its running
// duration, and the phase and progress from its subtree; a run's
// numbers are published when it ends, so a snapshot carries none. All
// methods are nil-safe, and Begin/Finish
// are query-boundary events — the registry is never touched per record.
// Progress flows through span Total/Done fields, which scan loops
// update atomically at their existing guard strides.
type Inflight struct {
	mu      sync.Mutex
	nextID  int64
	queries map[int64]*InflightQuery
}

// DefaultInflight is the process-global registry.
var DefaultInflight = &Inflight{}

// InflightQuery is one registered running query. Create with Begin;
// call Finish when the query ends (success or failure). Nil-safe.
type InflightQuery struct {
	reg   *Inflight
	id    int64
	label string
	span  *Span
	// maxProgress (float64 bits) smooths the reported fraction into a
	// monotonic non-decreasing series even when new work spans appear
	// and grow the denominator (e.g. a second multipass pass).
	maxProgress atomic.Uint64
}

// QuerySnapshot is one in-flight query as reported by Snapshot.
type QuerySnapshot struct {
	ID    int64  `json:"id"`
	Label string `json:"label,omitempty"`
	// TraceID is the query's flight-recorder trace ID, and TracePath the
	// link-ready debug endpoint where its full trace lands on completion
	// (/debug/aw/traces/<id>) — inflight → flight-recorder continuity.
	TraceID   string `json:"trace_id,omitempty"`
	TracePath string `json:"trace_path,omitempty"`
	Engine    string `json:"engine,omitempty"`
	Phase     string `json:"phase,omitempty"`
	ElapsedUs int64  `json:"elapsed_us"`
	// Done/Total sum record progress over every work span that has
	// declared a total; fixed-width rows make totals exact.
	Done  int64 `json:"records_done"`
	Total int64 `json:"records_total"`
	// Progress is the fraction of declared work completed, in [0, 1],
	// monotonically non-decreasing over a query's lifetime.
	Progress float64          `json:"progress"`
	Workers  []WorkerProgress `json:"workers,omitempty"`
}

// WorkerProgress is the progress of one work span (a shard, pass,
// measure query, or serial scan) inside an in-flight query.
type WorkerProgress struct {
	Name  string `json:"name"`
	Done  int64  `json:"done"`
	Total int64  `json:"total"`
}

// Begin registers a running query by its root span, whose "engine" and
// "trace_id" attrs, duration and subtree the snapshots read.
// A nil span lists the query by ID and label alone. Nil-safe on the
// registry.
func (f *Inflight) Begin(label string, span *Span) *InflightQuery {
	if f == nil {
		return nil
	}
	q := &InflightQuery{reg: f, label: label, span: span}
	f.mu.Lock()
	f.nextID++
	q.id = f.nextID
	if f.queries == nil {
		f.queries = make(map[int64]*InflightQuery)
	}
	f.queries[q.id] = q
	f.mu.Unlock()
	return q
}

// Finish deregisters the query. Idempotent, nil-safe.
func (q *InflightQuery) Finish() {
	if q == nil {
		return
	}
	q.reg.mu.Lock()
	delete(q.reg.queries, q.id)
	q.reg.mu.Unlock()
}

// ID returns the query's registry ID. Nil-safe (returns 0).
func (q *InflightQuery) ID() int64 {
	if q == nil {
		return 0
	}
	return q.id
}

// Snapshot lists every in-flight query, sorted by ID. Nil-safe.
func (f *Inflight) Snapshot() []QuerySnapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	qs := make([]*InflightQuery, 0, len(f.queries))
	for _, q := range f.queries {
		qs = append(qs, q)
	}
	f.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	out := make([]QuerySnapshot, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.snapshot())
	}
	return out
}

func (q *InflightQuery) snapshot() QuerySnapshot {
	s := QuerySnapshot{ID: q.id, Label: q.label}
	if q.span == nil {
		return s
	}
	o := q.span.rec.owner()
	s.ElapsedUs = q.span.Duration().Microseconds()
	o.mu.Lock()
	s.Engine, s.TraceID = attrLocked(q.span, "engine"), attrLocked(q.span, "trace_id")
	s.Phase, s.Done, s.Total, s.Workers = workProgressLocked(q.span)
	o.mu.Unlock()
	if s.TraceID != "" {
		// Mirrors flight.TracePath (obs cannot import flight — the flight
		// recorder is built on obs).
		s.TracePath = "/debug/aw/traces/" + s.TraceID
	}
	raw := 0.0
	if s.Total > 0 {
		raw = float64(s.Done) / float64(s.Total)
		if raw > 1 {
			raw = 1
		}
	}
	// Monotonic smoothing: never report less than a previous snapshot.
	for {
		prev := q.maxProgress.Load()
		if raw <= math.Float64frombits(prev) {
			raw = math.Float64frombits(prev)
			break
		}
		if q.maxProgress.CompareAndSwap(prev, math.Float64bits(raw)) {
			break
		}
	}
	s.Progress = raw
	return s
}

// attrLocked returns the span's value for key, or "". Caller holds the
// owning recorder's mutex.
func attrLocked(s *Span, key string) string {
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// workProgressLocked walks the query's span subtree collecting the
// current phase (the deepest still-running span) and record progress
// from every span that declared a total. Caller holds the owning
// recorder's mutex.
func workProgressLocked(span *Span) (phase string, done, total int64, workers []WorkerProgress) {
	phase = deepestRunningLocked(span)
	var walk func(s *Span, worker string)
	walk = func(s *Span, worker string) {
		switch s.name {
		case SpanShard, SpanPass, SpanMeasure:
			worker = workerName(s)
		}
		if t := s.total.Load(); t > 0 {
			d := s.done.Load()
			if d > t {
				d = t
			}
			done += d
			total += t
			name := worker
			if name == "" {
				name = s.name
			}
			workers = append(workers, WorkerProgress{Name: name, Done: d, Total: t})
		}
		for _, c := range s.children {
			walk(c, worker)
		}
	}
	walk(span, "")
	return phase, done, total, workers
}

// deepestRunningLocked returns the name of the most recently started
// still-running descendant (the query's current phase), or "" if the
// whole subtree has ended. Caller holds the owning recorder's mutex.
func deepestRunningLocked(s *Span) string {
	if s.ended {
		return ""
	}
	for i := len(s.children) - 1; i >= 0; i-- {
		if name := deepestRunningLocked(s.children[i]); name != "" {
			return name
		}
	}
	return s.name
}

// workerName labels a worker-scope span with its identifying attr
// ("shard:3", "pass:2", "measure:cnt").
func workerName(s *Span) string {
	for _, a := range s.attrs {
		switch a.Key {
		case "shard", "pass", "measure":
			return s.name + ":" + a.Value
		}
	}
	return s.name
}
