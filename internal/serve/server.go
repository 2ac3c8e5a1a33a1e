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
//   - retry with backoff (RetryPolicy): transient storage faults are
//     retried under jittered exponential backoff and a per-query retry
//     budget, with idempotent request IDs so a retried query logs one
//     history record;
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
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"awra/aw"
	"awra/internal/model"
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
	// every request logs one record (retries are idempotent by request
	// ID) and plans reuse measured statistics. The server owns the
	// history and closes it on drain.
	HistoryDir string
	// TempDir receives sort runs and spills; empty uses os.TempDir.
	TempDir string
	// Gate tunes admission control.
	Gate GateConfig
	// Overload tunes the degradation ladder.
	Overload OverloadConfig
	// Retry tunes transient-fault retry. (RetryPolicy's zero value
	// means "one attempt, no retries".)
	Retry RetryPolicy
	// DefaultTimeout bounds each query's execution (all attempts
	// combined share the request context; the timeout applies per
	// attempt). 0 means no timeout.
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
	// ReadBatchSize is the fact-read chunk size in bytes for every
	// query (0 = engine default); validated by aw's shared option
	// normalization at run time.
	ReadBatchSize int
	// SkipCorruptRows enables degraded reads for all queries.
	SkipCorruptRows bool
	// Cache tunes the result cache: finalized measure tables keyed by
	// (collection fingerprint × workflow fingerprint), LRU + byte
	// budget, invalidated when the collection file changes. On by
	// default; hits bypass admission entirely.
	Cache CacheConfig
	// Share tunes the scan-sharing batcher: compatible queries arriving
	// within Share.Window are merged onto one fact-table pass. Off by
	// default (Window = 0).
	Share ShareConfig
	// DrainTimeout bounds how long Drain waits for in-flight queries
	// before canceling them; 0 defaults to 10s.
	DrainTimeout time.Duration
	// Recorder receives process-level serve metrics; nil allocates a
	// private one.
	Recorder *obs.Recorder
}

// Server is one running query service. Create with New, mount
// Handler() (or use ListenAndServe), stop with Drain.
type Server struct {
	cfg    Config
	rec    *obs.Recorder
	gate   *Gate
	ctl    *Controller
	hist   *aw.History
	cache  *resultCache
	sharer *sharer
	state  atomic.Int32
	seq    atomic.Int64

	mu       sync.Mutex
	inflight map[int64]context.CancelFunc

	// wfCache caches compiled workflows by text hash: compilation is
	// pure, so concurrent recomputation is only wasted work.
	wfCache sync.Map // uint64 -> *wfdsl.Parsed

	mux *http.ServeMux
}

// New builds a server (opening the history directory when configured)
// but does not listen; mount Handler on any http.Server, or call
// ListenAndServe.
func New(cfg Config) (*Server, error) {
	if len(cfg.Collections) == 0 {
		return nil, fmt.Errorf("serve: no collections registered")
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.New()
	}
	s := &Server{cfg: cfg, rec: rec, inflight: make(map[int64]context.CancelFunc)}
	s.gate = NewGate(cfg.Gate, rec)
	s.ctl = NewController(cfg.Overload, s.gate, rec)
	s.cache = newResultCache(cfg.Cache, rec)
	s.sharer = newSharer(cfg.Share, rec)
	if cfg.HistoryDir != "" {
		h, err := aw.OpenHistory(cfg.HistoryDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.hist = h
	}
	// Register the rest of the metric vocabulary up front.
	rec.Counter(obs.MServeRequests)
	rec.Counter(obs.MServeRetries)
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
	// RequestID makes retries idempotent in the query history; empty
	// generates one.
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
	Attempts   int    `json:"attempts"`
	Degraded   bool   `json:"degraded,omitempty"`
	// ServedFrom marks an answer produced without a dedicated engine
	// run: "cache" (result-cache hit, zero attempts) or "shared"
	// (fanned out from a merged scan-sharing run).
	ServedFrom string `json:"served_from,omitempty"`
	// SourceTraceID is the flight trace of the run that actually
	// computed the tables, when ServedFrom is set.
	SourceTraceID string               `json:"source_trace_id,omitempty"`
	Measures      map[string][]ValueAt `json:"measures,omitempty"`
}

// ValueAt is one result row: a formatted region and its value.
type ValueAt struct {
	Region string  `json:"region"`
	Value  float64 `json:"value"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfterHeader formats a Retry-After value in whole seconds,
// rounded up (0 would invite an immediate retry).
func retryAfterHeader(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// parseWorkflow compiles (with caching) the request's workflow text.
func (s *Server) parseWorkflow(text string) (*wfdsl.Parsed, error) {
	h := fnv.New64a()
	h.Write([]byte(text))
	key := h.Sum64()
	if p, ok := s.wfCache.Load(key); ok {
		return p.(*wfdsl.Parsed), nil
	}
	p, err := wfdsl.Parse(text)
	if err != nil {
		return nil, err
	}
	s.wfCache.Store(key, p)
	return p, nil
}

// track registers an in-flight query's cancel func for drain.
func (s *Server) track(id int64, cancel context.CancelFunc) {
	s.mu.Lock()
	s.inflight[id] = cancel
	s.mu.Unlock()
}

func (s *Server) untrack(id int64) {
	s.mu.Lock()
	delete(s.inflight, id)
	s.mu.Unlock()
}

// cancelInflight cancels every tracked query (drain stragglers) and
// returns how many it canceled.
func (s *Server) cancelInflight() int {
	s.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.inflight))
	for _, c := range s.inflight {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return len(cancels)
}

// mergeAttempt folds one finished attempt's engine metrics into the
// server recorder. Only the FINAL attempt of a request is merged:
// earlier transiently-failed attempts re-read the same data, so
// folding every attempt would double-count per-row metrics — most
// visibly rows_corrupt_skipped after a retried-then-successful
// degraded read.
func (s *Server) mergeAttempt(att *obs.Recorder) (liveCells int64) {
	snap := att.Snapshot()
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

// resolvedEngine pulls the engine that actually ran from the attempt's
// query span (EngineAuto decisions resolved), falling back to the
// requested engine.
func resolvedEngine(att *obs.Recorder, fallback aw.Engine) string {
	snap := att.Snapshot()
	for _, sp := range snap.Spans {
		if sp.Name == obs.SpanQuery && sp.Attrs["engine"] != "" {
			return sp.Attrs["engine"]
		}
	}
	return fallback.String()
}

// handleQuery is the service's one write path: admission, degradation,
// execution with retry, and response mapping.
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
		w.Header().Set("Retry-After", retryAfterHeader(s.gate.cfg.RetryAfter))
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
		s.serveFromCache(w, req, reqID, traceID, factPath, parsed, e, t0)
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
			w.Header().Set("Retry-After", retryAfterHeader(re.RetryAfter))
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
			ReadBatchSize:   s.cfg.ReadBatchSize,
			Timeout:         s.cfg.DefaultTimeout,
			MaxLiveCells:    s.cfg.MaxLiveCells,
			MaxResultRows:   s.cfg.MaxResultRows,
			MaxSpillBytes:   s.cfg.MaxSpillBytes,
			SkipCorruptRows: s.cfg.SkipCorruptRows,
			History:         s.hist,
			RequestID:       reqID,
			// One trace ID across every retry attempt: the flight ring
			// merges attempts sharing it, so a retried request reads as
			// one trace with N attempt spans.
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

	// The query context is the client's, cancelable by drain.
	qctx, cancel := context.WithCancel(r.Context())
	qid := s.seq.Add(1)
	s.track(qid, cancel)
	defer func() { s.untrack(qid); cancel() }()

	in := aw.FromFile(factPath)
	// Fingerprint the collection file before running: Put revalidates
	// against it, so a file that changes mid-run never populates the
	// cache with tables describing a state that no longer exists.
	// A fingerprint error just disables population for this request.
	preFP, _ := fileFingerprint(factPath)

	// runWorkflow executes one compiled workflow (the request's own, or
	// a merged batch) under this request's options and retry policy.
	runWorkflow := func(c *aw.Compiled) (aw.Results, *obs.Recorder, int, error) {
		var (
			res        aw.Results
			attemptRec *obs.Recorder
		)
		attempts, runErr := s.cfg.Retry.Do(qctx, s.rec, func(attempt int) error {
			// A fresh recorder per attempt: only the final attempt's
			// metrics are merged (see mergeAttempt), so a retried attempt
			// that re-skipped the same corrupt rows is not double-counted.
			attemptRec = obs.New()
			o := opts
			o.Recorder = attemptRec
			var err error
			res, err = aw.RunCompiled(qctx, c, in, o)
			return err
		})
		return res, attemptRec, attempts, runErr
	}

	var (
		res         aw.Results
		attemptRec  *obs.Recorder
		attempts    int
		runErr      error
		engineName  string
		servedFrom  string
		sourceTrace string
	)
	shared := false
	if s.sharer != nil {
		// Scan sharing: queries over the same file, schema shape, and
		// result-affecting options arriving within the hold window run
		// as ONE merged workflow — one fact-table pass for the batch.
		groupKey := fmt.Sprintf("%s|%s|skip=%v|eng=%s",
			factPath, model.SchemaSignature(parsed.Schema), s.cfg.SkipCorruptRows, engine)
		var out shareOutcome
		out, shared = s.sharer.submit(qctx, groupKey, parsed.Compiled, traceID,
			func(merged *aw.Compiled) (aw.Results, string, int, error) {
				mres, mrec, matt, err := runWorkflow(merged)
				attemptRec = mrec // runner == leader: single-goroutine capture
				return mres, resolvedEngine(mrec, engine), matt, err
			})
		if shared {
			res, runErr = out.res, out.err
			engineName, attempts = out.engine, out.attempts
			if !out.leader {
				servedFrom, sourceTrace = "shared", out.leaderTraceID
			}
		}
	}
	if !shared {
		res, attemptRec, attempts, runErr = runWorkflow(parsed.Compiled)
		engineName = resolvedEngine(attemptRec, engine)
	}

	latency := time.Since(t0)
	var liveCells int64
	if attemptRec != nil {
		liveCells = s.mergeAttempt(attemptRec)
	}
	s.ctl.Observe(latency, liveCells)
	// The slow-query threshold tracks the service's recent latency
	// distribution: 2× the overload window's p95 (0 until the window
	// has signal, which leaves the flight ring on its own p99 fallback).
	aw.SetSlowThresholdUs(2 * s.ctl.WindowP95().Microseconds())
	outcome := "ok"
	if runErr != nil {
		outcome = "error"
	}
	s.rec.Histogram(obs.HServeLatencyUs, "outcome", outcome).Observe(latency.Microseconds())

	if servedFrom == "shared" {
		// The merged run logged ONE history record and flight trace
		// under the leader's identity; followers synthesize theirs so
		// the one-record-per-request invariant holds, linked to the
		// leader's trace, with no per-node profile (no work happened
		// here — stats must not see zero-cardinality nodes).
		s.recordServed(req, reqID, traceID, factPath, parsed, "shared", sourceTrace, engineName, latency, runErr)
	}
	if runErr == nil {
		// Populate the cache for every batch member's own key (and for
		// solo runs): only final, successful results, and only if the
		// collection file still fingerprints as it did pre-run.
		srcTrace := traceID
		if sourceTrace != "" {
			srcTrace = sourceTrace
		}
		s.cache.Put(ck, factPath, preFP, res, srcTrace, engineName)
	}

	resp := QueryResponse{
		RequestID:     reqID,
		TraceID:       traceID,
		Outcome:       outcome,
		Engine:        engineName,
		DurationUs:    latency.Microseconds(),
		Attempts:      attempts,
		Degraded:      degraded,
		ServedFrom:    servedFrom,
		SourceTraceID: sourceTrace,
	}
	if runErr != nil {
		resp.Error = runErr.Error()
		writeJSON(w, s.statusFor(runErr), resp)
		return
	}
	resp.Measures = topkMeasures(res, req)
	writeJSON(w, http.StatusOK, resp)
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
// engine, zero attempts. It still leaves the full observability trail —
// a history record (outcome cache_hit, which measured statistics
// ignore), a flight trace linking to the computing run, and its own
// latency histogram bucket.
func (s *Server) serveFromCache(w http.ResponseWriter, req QueryRequest, reqID, traceID, factPath string, parsed *wfdsl.Parsed, e *cacheEntry, t0 time.Time) {
	latency := time.Since(t0)
	s.rec.Histogram(obs.HServeLatencyUs, "outcome", "cache_hit").Observe(latency.Microseconds())
	s.recordServed(req, reqID, traceID, factPath, parsed, "cache", e.traceID, e.engine, latency, nil)
	resp := QueryResponse{
		RequestID:     reqID,
		TraceID:       traceID,
		Outcome:       "ok",
		Engine:        e.engine,
		DurationUs:    latency.Microseconds(),
		Attempts:      0,
		ServedFrom:    "cache",
		SourceTraceID: e.traceID,
		Measures:      topkMeasures(e.res, req),
	}
	writeJSON(w, http.StatusOK, resp)
}

// recordServed writes the history record and flight trace for a query
// answered without its own engine run (cache hit or shared fan-out).
// The record carries no per-node profile: the measured-statistics
// store folds only OutcomeOK records, so zero-work answers can never
// skew per-node cardinalities.
func (s *Server) recordServed(req QueryRequest, reqID, traceID, factPath string, parsed *wfdsl.Parsed, servedFrom, sourceTrace, engine string, latency time.Duration, runErr error) {
	outcome := aw.OutcomeCacheHit
	errMsg := ""
	if servedFrom == "shared" {
		outcome, errMsg = aw.OutcomeOf(runErr)
	}
	label := strings.Join(parsed.Compiled.Outputs(), ",")
	rec := &aw.HistoryRecord{
		Time:          time.Now(),
		RequestID:     reqID,
		TraceID:       traceID,
		Label:         label,
		QueryFP:       parsed.Compiled.Fingerprint(),
		CollectionFP:  aw.CollectionFingerprint(aw.FromFile(factPath)),
		Engine:        servedFrom,
		Outcome:       outcome,
		Error:         errMsg,
		ServedFrom:    servedFrom,
		SourceTraceID: sourceTrace,
		DurationUs:    latency.Microseconds(),
	}
	_ = s.hist.Append(rec)
	flight.Default.Commit(&flight.Trace{
		ID:            traceID,
		RequestID:     reqID,
		Label:         label,
		Engine:        engine,
		Outcome:       outcome,
		Error:         errMsg,
		DurationUs:    latency.Microseconds(),
		ServedFrom:    servedFrom,
		SourceTraceID: sourceTrace,
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
// for everything else (including transient faults that survived every
// retry).
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
		w.Header().Set("Retry-After", retryAfterHeader(s.gate.cfg.RetryAfter))
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

func (s *Server) handleInflight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := aw.WriteInflightJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	n := 50
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.hist.WriteJSON(w, n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleTraces lists the flight recorder's retained traces, newest
// first (?n= caps the count).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := aw.WriteTracesJSON(w, n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleTraceByID serves one full flight trace (span tree, per-node
// profile, attempt chain) at /debug/aw/traces/{trace_id}.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/aw/traces/")
	if id == "" {
		s.handleTraces(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	found, err := aw.WriteTraceJSON(w, id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !found {
		http.Error(w, fmt.Sprintf("trace %q not retained", id), http.StatusNotFound)
	}
}

// handleSlow serves the slow-query log: retained traces at or above
// the effective slow threshold, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := aw.WriteSlowJSON(w, n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Draining reports whether the server has left the ready state.
func (s *Server) Draining() bool { return s.state.Load() != stateReady }

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
	if s.gate.Active() > 0 {
		n := s.cancelInflight()
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
