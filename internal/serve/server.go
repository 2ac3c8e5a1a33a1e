// Package serve is the always-on query service built on the aw
// library: an HTTP/JSON front end that keeps answering compiled
// workflow queries for many concurrent callers without falling over.
// Robustness is the architecture, in four layers:
//
//   - admission control (Gate): a semaphore of execution slots with a
//     bounded FIFO wait queue and per-tenant concurrency limits;
//     saturated arrivals get 429 + Retry-After instead of a pile-up;
//   - graceful degradation (Controller): the recent p95 latency and
//     live-cell high-water marks drive a three-level overload ladder —
//     normal → tightened budgets with a forced sortscan→multipass
//     downgrade (the paper's Section 6 decision procedure under a
//     smaller budget) → shedding;
//   - idempotent request IDs: each request runs its query once, and a
//     client that resends the same request ID after a failure
//     supersedes the earlier history record, so a request logs one;
//   - graceful drain (Server.Drain): stop admissions, let in-flight
//     queries finish under a deadline, cancel stragglers through the
//     engines' cooperative cancellation, flush the history log, exit
//     clean.
//
// The service surfaces /healthz, /readyz, /metrics (Prometheus), and
// the library's /debug/aw/queries and /debug/aw/history endpoints,
// plus the query flight recorder: /debug/aw/traces (retained traces),
// /debug/aw/traces/{trace_id} (one full trace), and /debug/aw/slow
// (the slow-query log). Every response carries the query's trace ID
// (W3C traceparent in, trace_id + traceparent echo out).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"awra/aw"
	"awra/internal/obs"
	"awra/internal/obs/flight"
	"awra/internal/wfdsl"
)

// Server states (the readiness ladder).
const (
	stateReady int32 = iota
	stateDraining
	stateStopped
)

// Config assembles one server.
type Config struct {
	// Collections maps collection names to fact-file paths. Queries
	// name a collection; the workflow text declares its schema.
	Collections map[string]string
	// HistoryDir, when set, opens the persistent query history there:
	// every request logs one record (a client resending the same request
	// ID supersedes the earlier one) and plans reuse measured
	// statistics. The server owns the history and closes it on drain.
	HistoryDir string
	// TempDir receives sort runs and spills; empty uses os.TempDir.
	TempDir string
	// Gate tunes admission control.
	Gate GateConfig
	// Overload tunes the degradation ladder.
	Overload OverloadConfig
	// DefaultTimeout bounds each query's execution; 0 means none.
	DefaultTimeout time.Duration
	// DefaultEngine runs queries that do not name an engine;
	// zero-value is aw.EngineSortScan, so set EngineAuto explicitly
	// for the Section 6 decision procedure.
	DefaultEngine aw.Engine
	// Budgets are the per-query guardrails applied to every request;
	// the overload controller tightens them further under pressure.
	MaxLiveCells  int64
	MaxResultRows int64
	MaxSpillBytes int64
	// MemoryBudget is the EngineAuto planning budget in bytes.
	MemoryBudget int64
	// Parallelism is passed through to the engines (shard count).
	Parallelism int
	// SkipCorruptRows enables degraded reads for all queries.
	SkipCorruptRows bool
	// Cache tunes the result cache: finalized measure tables keyed by
	// (collection file × workflow fingerprint), LRU + byte budget,
	// invalidated when the file's aw.CollectionFingerprint — the same
	// identity history records and measured statistics carry — no
	// longer matches the run's. On by default; hits bypass admission
	// entirely.
	Cache CacheConfig
	// DrainTimeout bounds how long Drain waits for in-flight queries
	// before canceling them; 0 defaults to 10s.
	DrainTimeout time.Duration
}

// wfCacheMax caps the compiled-workflow cache. Workflow texts come
// from clients, so a full cache is cleared rather than left to grow.
const wfCacheMax = 256

// Server is one running query service. Create with New, mount
// Handler() (or use ListenAndServe), stop with Drain.
type Server struct {
	cfg   Config
	rec   *obs.Recorder
	gate  *Gate
	ctl   *Controller
	hist  *aw.History
	cache *resultCache
	state atomic.Int32
	seq   atomic.Int64
	// life is the server-lifetime context every query context follows:
	// Drain cancels it (endLife) to cancel the stragglers.
	life    context.Context
	endLife context.CancelFunc

	// wfCache caches compiled workflows by text hash: compilation is
	// pure, so concurrent recomputation is only wasted work. It holds
	// at most wfCacheMax entries.
	wfMu    sync.Mutex
	wfCache map[uint64]*wfdsl.Parsed

	mux *http.ServeMux
}

// New builds a server (opening the history directory when configured)
// but does not listen; mount Handler on any http.Server, or call
// ListenAndServe.
func New(cfg Config) (*Server, error) {
	if len(cfg.Collections) == 0 {
		return nil, fmt.Errorf("serve: no collections registered")
	}
	rec := obs.New()
	s := &Server{cfg: cfg, rec: rec, wfCache: make(map[uint64]*wfdsl.Parsed)}
	s.life, s.endLife = context.WithCancel(context.Background())
	s.gate = NewGate(cfg.Gate, rec)
	s.ctl = NewController(cfg.Overload, s.gate, rec)
	s.cache = newResultCache(cfg.Cache, rec)
	if cfg.HistoryDir != "" {
		h, err := aw.OpenHistory(cfg.HistoryDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.hist = h
	}
	// Register the rest of the metric vocabulary up front.
	rec.Counter(obs.MServeRequests)
	rec.Counter(obs.MServeDrainCanceled)

	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/aw/queries", s.handleInflight)
	mux.HandleFunc("/debug/aw/history", s.handleHistory)
	mux.HandleFunc("/debug/aw/traces", s.handleTraces)
	mux.HandleFunc("/debug/aw/traces/", s.handleTraceByID)
	mux.HandleFunc("/debug/aw/slow", s.handleSlow)
	mux.HandleFunc("/debug/aw/cache", s.handleCache)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// History returns the server's history (nil when not configured).
func (s *Server) History() *aw.History { return s.hist }

// Controller returns the overload controller (tests and operators).
func (s *Server) Controller() *Controller { return s.ctl }

// Gate returns the admission gate.
func (s *Server) Gate() *Gate { return s.gate }

// CacheSnapshot returns the result cache's current state — the same
// payload /debug/aw/cache serves.
func (s *Server) CacheSnapshot() CacheSnapshot { return s.cache.Snapshot() }

// QueryRequest is the POST /query payload.
type QueryRequest struct {
	// Workflow is the query text in the wfdsl syntax (schema + measure
	// declarations). Required.
	Workflow string `json:"workflow"`
	// Collection names a registered fact file. Required.
	Collection string `json:"collection"`
	// Tenant scopes per-tenant admission limits; empty = "default".
	Tenant string `json:"tenant,omitempty"`
	// RequestID names the request in the query history: resending the
	// same ID supersedes the earlier record. Empty generates one.
	RequestID string `json:"request_id,omitempty"`
	// Engine overrides the server's default engine by name.
	Engine string `json:"engine,omitempty"`
	// TimeoutMs overrides (only downward) the server's default query
	// timeout.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Limit caps rows returned per measure; 0 defaults to 50.
	Limit int `json:"limit,omitempty"`
	// Measure returns only this measure's table.
	Measure string `json:"measure,omitempty"`
}

// QueryResponse is the POST /query result envelope.
type QueryResponse struct {
	RequestID string `json:"request_id"`
	// TraceID keys the query's flight-recorder entry: GET
	// /debug/aw/traces/<trace_id> returns the full trace. Every
	// response — success or error — carries it (and echoes a W3C
	// traceparent header), so any outcome can be correlated after the
	// fact.
	TraceID    string `json:"trace_id,omitempty"`
	Outcome    string `json:"outcome"` // ok | error
	Error      string `json:"error,omitempty"`
	Engine     string `json:"engine,omitempty"`
	DurationUs int64  `json:"duration_us"`
	Degraded   bool   `json:"degraded,omitempty"`
	// ServedFrom is "cache" when the result cache answered without an
	// engine run, and empty otherwise.
	ServedFrom string `json:"served_from,omitempty"`
	// SourceTraceID is the flight trace of the run that computed the
	// cached tables, when ServedFrom is set.
	SourceTraceID string               `json:"source_trace_id,omitempty"`
	Measures      map[string][]ValueAt `json:"measures,omitempty"`
}

// ValueAt is one result row: a formatted region and its value.
type ValueAt struct {
	Region string  `json:"region"`
	Value  float64 `json:"value"`
}

// writeJSON writes v, compact and newline-terminated, with the given
// status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterHeader is the Retry-After value of every 429 and 503:
// retryAfter in whole seconds.
var retryAfterHeader = strconv.FormatInt(int64(retryAfter/time.Second), 10)

// parseWorkflow compiles (with caching) the request's workflow text.
func (s *Server) parseWorkflow(text string) (*wfdsl.Parsed, error) {
	h := fnv.New64a()
	h.Write([]byte(text))
	key := h.Sum64()
	s.wfMu.Lock()
	p, ok := s.wfCache[key]
	s.wfMu.Unlock()
	if ok {
		return p, nil
	}
	p, err := wfdsl.Parse(text)
	if err != nil {
		return nil, err
	}
	s.wfMu.Lock()
	if len(s.wfCache) >= wfCacheMax {
		clear(s.wfCache)
	}
	s.wfCache[key] = p
	s.wfMu.Unlock()
	return p, nil
}

// mergeRun folds one finished run's engine metrics into the server
// recorder and returns the run's live-cell high-water mark.
func (s *Server) mergeRun(snap obs.Snapshot) (liveCells int64) {
	for name, v := range snap.Counters {
		if v != 0 {
			s.rec.Counter(name).Add(v)
		}
	}
	for name, v := range snap.Gauges {
		s.rec.Gauge(name).SetMax(v)
	}
	return snap.Gauges[obs.GLiveCellsHWM]
}

// queryAttrs returns the attributes of the run's query span: the
// engine that actually ran (EngineAuto decisions resolved) and the
// collection_fp the run read before it opened its input.
func queryAttrs(snap obs.Snapshot) map[string]string {
	for _, sp := range snap.Spans {
		if sp.Name == obs.SpanQuery {
			return sp.Attrs
		}
	}
	return nil
}

// handleQuery is the service's one write path: admission, degradation,
// execution, and response mapping.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.rec.Counter(obs.MServeRequests).Add(1)
	// Trace identity first: ingest the caller's W3C traceparent (so a
	// distributed trace spans client and engine) or mint a fresh ID,
	// and echo it on every response — including the early rejects below
	// — so any outcome can be correlated with its flight-recorder entry.
	traceID, ok := flight.ParseTraceparent(r.Header.Get(flight.Traceparent))
	if !ok {
		traceID = flight.NewTraceID()
	}
	w.Header().Set(flight.Traceparent, flight.FormatTraceparent(traceID))
	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{TraceID: traceID, Outcome: "error", Error: "bad request: " + err.Error()})
		return
	}
	reqID := req.RequestID
	if reqID == "" {
		reqID = "srv-" + strconv.FormatInt(s.seq.Add(1), 10)
	}
	if s.state.Load() != stateReady {
		w.Header().Set("Retry-After", retryAfterHeader)
		writeJSON(w, http.StatusServiceUnavailable, QueryResponse{RequestID: reqID, TraceID: traceID, Outcome: "error", Error: "draining"})
		return
	}
	factPath, ok := s.cfg.Collections[req.Collection]
	if !ok {
		writeJSON(w, http.StatusNotFound, QueryResponse{RequestID: reqID, TraceID: traceID, Outcome: "error",
			Error: fmt.Sprintf("unknown collection %q (have %s)", req.Collection, strings.Join(s.collectionNames(), ", "))})
		return
	}
	parsed, err := s.parseWorkflow(req.Workflow)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, QueryResponse{RequestID: reqID, TraceID: traceID, Outcome: "error", Error: err.Error()})
		return
	}
	engine := s.cfg.DefaultEngine
	if req.Engine != "" {
		if engine, err = aw.ParseEngine(req.Engine); err != nil {
			writeJSON(w, http.StatusBadRequest, QueryResponse{RequestID: reqID, TraceID: traceID, Outcome: "error", Error: err.Error()})
			return
		}
	}
	// A measure the workflow does not output would run the whole query
	// and answer with no table: refuse it before the cache or a slot.
	if outputs := parsed.Compiled.Outputs(); req.Measure != "" && !slices.Contains(outputs, req.Measure) {
		writeJSON(w, http.StatusBadRequest, QueryResponse{RequestID: reqID, TraceID: traceID, Outcome: "error",
			Error: fmt.Sprintf("unknown measure %q (the workflow outputs %s)", req.Measure, strings.Join(outputs, ", "))})
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	t0 := time.Now()

	// Result cache, consulted BEFORE admission: a hit costs no engine
	// work, so it must not occupy an execution slot — under overload,
	// cache hits keep flowing while the gate sheds real work.
	ck := cacheKey(factPath, parsed.Compiled.Fingerprint(), s.cfg.SkipCorruptRows)
	if e, ok := s.cache.Get(ck, factPath); ok {
		s.serveFromCache(w, req, reqID, traceID, parsed, e, t0)
		return
	}

	// Admission: the only wait in the request path, bounded by the
	// gate's queue depth and wait allowance.
	release, err := s.gate.Admit(r.Context(), tenant)
	if waited := time.Since(t0); waited > time.Millisecond {
		s.rec.Histogram(obs.HServeWaitUs).Observe(waited.Microseconds())
	}
	if err != nil {
		if re, ok := AsReject(err); ok {
			status := http.StatusTooManyRequests
			if re.Reason == ReasonDraining {
				status = http.StatusServiceUnavailable
			}
			w.Header().Set("Retry-After", retryAfterHeader)
			writeJSON(w, status, QueryResponse{RequestID: reqID, TraceID: traceID, Outcome: "error", Error: re.Error()})
			return
		}
		// The client went away while queued.
		writeJSON(w, http.StatusRequestTimeout, QueryResponse{RequestID: reqID, TraceID: traceID, Outcome: "error", Error: err.Error()})
		return
	}
	defer release()

	opts := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{
			Engine:          engine,
			MemoryBudget:    s.cfg.MemoryBudget,
			Parallelism:     s.cfg.Parallelism,
			Timeout:         s.cfg.DefaultTimeout,
			MaxLiveCells:    s.cfg.MaxLiveCells,
			MaxResultRows:   s.cfg.MaxResultRows,
			MaxSpillBytes:   s.cfg.MaxSpillBytes,
			SkipCorruptRows: s.cfg.SkipCorruptRows,
			History:         s.hist,
			RequestID:       reqID,
			// The flight ring chains every run under one trace ID, so
			// requests that share a client's traceparent read as one
			// trace with one record per run.
			TraceID: traceID,
		},
		TempDir: s.cfg.TempDir,
	}
	if req.TimeoutMs > 0 {
		t := time.Duration(req.TimeoutMs) * time.Millisecond
		if opts.Timeout == 0 || t < opts.Timeout {
			opts.Timeout = t
		}
	}
	degraded := s.ctl.Apply(&opts)

	// The query context is the client's, and ends with the server's
	// life: drain cancels the stragglers through it.
	qctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.life, cancel)()

	// Each run gets a fresh recorder; mergeRun folds its snapshot into
	// the server's.
	opts.Recorder = obs.New()
	res, runErr := aw.RunCompiled(qctx, parsed.Compiled, aw.FromFile(factPath), opts)
	snap := opts.Recorder.Snapshot()
	attrs := queryAttrs(snap)
	engineName := attrs["engine"]
	if engineName == "" {
		engineName = engine.String()
	}

	latency := time.Since(t0)
	s.ctl.Observe(latency, s.mergeRun(snap))
	// The slow-query threshold tracks the service's recent latency
	// distribution: 2× the overload window's p95 (0 until the window
	// has signal, which leaves the flight ring on its own p99 fallback).
	aw.SetSlowThresholdUs(2 * s.ctl.WindowP95().Microseconds())
	outcome := "ok"
	if runErr != nil {
		outcome = "error"
	}

	if runErr == nil {
		// Only final, successful results populate the cache, and only if
		// the collection file still fingerprints as the run read it
		// before it started: tables from a file that changed mid-run
		// describe a state that no longer exists. An empty identity
		// (the file could not be read) populates nothing.
		s.cache.Put(ck, factPath, attrs["collection_fp"], res, traceID, engineName)
	}

	resp := QueryResponse{
		RequestID:  reqID,
		TraceID:    traceID,
		Outcome:    outcome,
		Engine:     engineName,
		DurationUs: latency.Microseconds(),
		Degraded:   degraded,
	}
	if runErr != nil {
		resp.Error = runErr.Error()
		writeJSON(w, s.statusFor(runErr), resp)
	} else {
		resp.Measures = topkMeasures(res, req)
		writeJSON(w, http.StatusOK, resp)
	}
	s.rec.Histogram(obs.HServeLatencyUs, "outcome", outcome).Observe(time.Since(t0).Microseconds())
}

// topkMeasures maps full result tables to the response's top-K rows.
func topkMeasures(res aw.Results, req QueryRequest) map[string][]ValueAt {
	limit := req.Limit
	if limit <= 0 {
		limit = 50
	}
	out := make(map[string][]ValueAt)
	for name, table := range res {
		if req.Measure != "" && name != req.Measure {
			continue
		}
		rows := aw.TopK(table, limit)
		vals := make([]ValueAt, len(rows))
		for i, row := range rows {
			vals[i] = ValueAt{Region: row.Label, Value: row.Value}
		}
		out[name] = vals
	}
	return out
}

// serveFromCache answers a query from a cache entry: no admission, no
// engine run. It still leaves the full observability trail —
// a history record (outcome cache_hit, which measured statistics
// ignore), a flight trace linking to the computing run, and its own
// latency histogram bucket.
func (s *Server) serveFromCache(w http.ResponseWriter, req QueryRequest, reqID, traceID string, parsed *wfdsl.Parsed, e *cacheEntry, t0 time.Time) {
	latency := time.Since(t0)
	s.recordServed(reqID, traceID, parsed, e, latency)
	resp := QueryResponse{
		RequestID:     reqID,
		TraceID:       traceID,
		Outcome:       "ok",
		Engine:        e.engine,
		DurationUs:    latency.Microseconds(),
		ServedFrom:    "cache",
		SourceTraceID: e.traceID,
		Measures:      topkMeasures(e.res, req),
	}
	writeJSON(w, http.StatusOK, resp)
	s.rec.Histogram(obs.HServeLatencyUs, "outcome", "cache_hit").Observe(time.Since(t0).Microseconds())
}

// recordServed finishes a cache hit: one record, committed to the
// flight recorder and the history alike, with served_from set so the
// trace gains no run record. Its collection identity is the entry's,
// which Get has just found equal to the file's current state. The
// record carries no per-node profile: the measured-statistics store
// folds only OutcomeOK records, so zero-work answers can never skew
// per-node cardinalities.
func (s *Server) recordServed(reqID, traceID string, parsed *wfdsl.Parsed, e *cacheEntry, latency time.Duration) {
	_ = s.hist.Append(&aw.HistoryRecord{
		RequestID:     reqID,
		TraceID:       traceID,
		Label:         strings.Join(parsed.Compiled.Outputs(), ","),
		QueryFP:       parsed.Compiled.Fingerprint(),
		CollectionFP:  e.fileFP,
		Engine:        "cache",
		Outcome:       aw.OutcomeCacheHit,
		ServedFrom:    "cache",
		SourceTraceID: e.traceID,
		DurationUs:    latency.Microseconds(),
	})
}

// handleCache serves the result cache's state at /debug/aw/cache.
func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Snapshot())
}

// statusFor maps a final query error onto the HTTP status ladder:
// 429/503 for admission (handled earlier), 422 for a query that blew
// its resource budget (a client problem: the query is too big for its
// allowance), 503 when drain canceled it, 504 for a timeout, and 500
// for everything else, storage faults included.
func (s *Server) statusFor(err error) int {
	switch {
	case errors.Is(err, aw.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, aw.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, aw.ErrCanceled):
		if s.state.Load() != stateReady {
			return http.StatusServiceUnavailable
		}
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) collectionNames() []string {
	names := make([]string, 0, len(s.cfg.Collections))
	for n := range s.cfg.Collections {
		names = append(names, n)
	}
	return names
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process is up, even while draining.
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.state.Load() != stateReady {
		w.Header().Set("Retry-After", retryAfterHeader)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.rec.WritePrometheus(w); err != nil {
		return
	}
	// The history's cross-run latency histograms use disjoint family
	// names, so both exports share one exposition cleanly.
	_ = s.hist.WritePrometheus(w)
}

// writeIndented serves one /debug/aw view: a store's snapshot as
// indented JSON.
func writeIndented(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// countParam reads a view's ?n= row cap: a positive integer, else def.
func countParam(r *http.Request, def int) int {
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
		return v
	}
	return def
}

// tracePage wraps flight-recorder rows in the list envelope.
func tracePage(rows []flight.Summary) flight.Page {
	return flight.Page{Total: flight.Default.Len(), SlowThresholdUs: flight.Default.SlowThresholdUs(), Traces: rows}
}

// handleInflight lists the running queries at /debug/aw/queries.
func (s *Server) handleInflight(w http.ResponseWriter, _ *http.Request) {
	writeIndented(w, struct {
		Queries []aw.QuerySnapshot `json:"queries"`
	}{aw.InflightQueries()})
}

// handleHistory serves the newest runs (?n=, default 50) and the
// per-engine latency percentiles at /debug/aw/history.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	writeIndented(w, s.hist.Summary(countParam(r, 50)))
}

// handleTraces lists the flight recorder's retained traces, newest
// first (?n= caps the count).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeIndented(w, tracePage(flight.Default.List(countParam(r, 0))))
}

// handleTraceByID serves one full flight trace (span tree, per-node
// profile, run chain) at /debug/aw/traces/{trace_id}.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/aw/traces/")
	if id == "" {
		s.handleTraces(w, r)
		return
	}
	t, ok := aw.LookupTrace(id)
	if !ok {
		http.Error(w, fmt.Sprintf("trace %q not retained", id), http.StatusNotFound)
		return
	}
	writeIndented(w, t)
}

// handleSlow serves the slow-query log: retained traces at or above
// the effective slow threshold, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeIndented(w, tracePage(flight.Default.Slow(countParam(r, 0))))
}

// Drain performs the graceful shutdown ladder: stop admissions (readyz
// flips to 503, new queries get 503 + Retry-After), wait up to the
// drain timeout for in-flight queries to finish, cancel stragglers
// through the engines' cooperative cancellation paths, then close the
// history log (flushing it). It returns nil when everything finished
// or was canceled cleanly; an error if queries were still running when
// the post-cancel grace expired. Idempotent: later calls return nil.
func (s *Server) Drain() error {
	if !s.state.CompareAndSwap(stateReady, stateDraining) {
		return nil
	}
	s.gate.Close()
	timeout := s.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for s.gate.Active() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	var drainErr error
	if n := s.gate.Active(); n > 0 {
		// Every admitted query's context follows the server's life, so
		// one cancel reaches all n stragglers.
		s.endLife()
		s.rec.Counter(obs.MServeDrainCanceled).Add(int64(n))
		// Cooperative cancellation bounds are sub-250ms on engine
		// strides; allow a generous grace for unwinding and history
		// appends.
		grace := time.Now().Add(5 * time.Second)
		for s.gate.Active() > 0 && time.Now().Before(grace) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := s.gate.Active(); n > 0 {
			drainErr = fmt.Errorf("serve: %d queries still running after drain deadline + cancel grace", n)
		}
	}
	s.state.Store(stateStopped)
	if s.hist != nil && drainErr == nil {
		if err := s.hist.Close(); err != nil {
			drainErr = err
		}
	}
	return drainErr
}

// ListenAndServe runs the service on addr until ctx is canceled, then
// drains and shuts the listener down, returning the drain error (nil
// on a clean exit).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainErr := s.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}
