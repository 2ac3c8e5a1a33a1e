package serve

// Flight-recorder integration: trace IDs end-to-end through the HTTP
// service, one trace for requests that share a client's traceparent,
// tail-based pinning of budget-tripped queries, and correlation IDs on
// every error response.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"awra/aw"
	"awra/internal/faultfs"
	"awra/internal/obs/flight"
	"awra/internal/storage"
)

// getTrace fetches /debug/aw/traces/{id} and decodes the full trace.
func getTrace(t *testing.T, base, id string) (int, flight.Trace) {
	t.Helper()
	resp, err := http.Get(base + "/debug/aw/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr flight.Trace
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, tr
}

func TestServeResponseCarriesTraceID(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, qr, hdr := postQuery(t, ts.URL, QueryRequest{
		Workflow: testWorkflow, Collection: "net", RequestID: "q-trace", Limit: 5,
	})
	if status != http.StatusOK || qr.Outcome != "ok" {
		t.Fatalf("status=%d outcome=%q error=%q", status, qr.Outcome, qr.Error)
	}
	if len(qr.TraceID) != 32 {
		t.Fatalf("trace_id %q is not a 32-hex trace ID", qr.TraceID)
	}
	tp := hdr.Get("traceparent")
	if got, ok := flight.ParseTraceparent(tp); !ok || got != qr.TraceID {
		t.Fatalf("traceparent echo %q does not carry trace_id %q", tp, qr.TraceID)
	}
}

// postTraced posts a query under the caller's W3C traceparent for
// traceID.
func postTraced(t *testing.T, base, traceID string, req QueryRequest) (int, QueryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, qr
}

// postFailedThenHealed sends two requests under one traceparent: the
// first while every read fails, the second once the fault has healed.
func postFailedThenHealed(t *testing.T, base, traceID string) {
	t.Helper()
	restore := swapFaultFS(t, func(fs *faultfs.FS) { fs.FailReadAfter(0) })
	status, failed := postTraced(t, base, traceID, QueryRequest{
		Workflow: testWorkflow, Collection: "net", RequestID: "q-tp-1",
	})
	restore()
	if status != http.StatusInternalServerError || failed.TraceID != traceID {
		t.Fatalf("under the fault: status=%d trace_id=%q error=%q, want 500 under %s", status, failed.TraceID, failed.Error, traceID)
	}
	status, healed := postTraced(t, base, traceID, QueryRequest{
		Workflow: testWorkflow, Collection: "net", RequestID: "q-tp-2",
	})
	if status != http.StatusOK || healed.TraceID != traceID {
		t.Fatalf("healed: status=%d trace_id=%q error=%q, want 200 under %s", status, healed.TraceID, healed.Error, traceID)
	}
}

// checkErrorThenOK asserts a trace holds a two-record chain, error then
// ok, each with its span tree, pinned as an error and as retried.
func checkErrorThenOK(t *testing.T, tr flight.Trace) {
	t.Helper()
	if len(tr.Attempts) != 2 {
		t.Fatalf("trace has %d records, want 2 — one trace for both requests", len(tr.Attempts))
	}
	for i, att := range tr.Attempts {
		if att.Span == nil || att.Span.Name != "query" {
			t.Fatalf("record %d carries no query span tree: %+v", i+1, att.Span)
		}
	}
	if tr.Attempts[0].Outcome != aw.OutcomeError || tr.Attempts[1].Outcome != aw.OutcomeOK {
		t.Fatalf("chain outcomes %q then %q, want error then ok", tr.Attempts[0].Outcome, tr.Attempts[1].Outcome)
	}
	reasons := strings.Join(tr.PinReasons, ",")
	if !tr.Pinned || !strings.Contains(reasons, flight.PinError) || !strings.Contains(reasons, flight.PinRetried) {
		t.Fatalf("trace pinned=%v reasons=%q, want %q and %q", tr.Pinned, reasons, flight.PinError, flight.PinRetried)
	}
}

func TestServeTraceparentIngested(t *testing.T) {
	// The query budget-trips so its trace is pinned — retention under
	// the caller's ID must be deterministic, not a sampling draw.
	_, ts := newTestServer(t, func(c *Config) {
		c.DefaultEngine = aw.EngineSortScan
		c.MaxLiveCells = 1
	})
	want := "4bf92f3577b34da6a3ce929d0e0e4736"
	_, qr := postTraced(t, ts.URL, want, QueryRequest{Workflow: testWorkflow, Collection: "net", RequestID: "q-tp"})
	if qr.TraceID != want {
		t.Fatalf("trace_id = %q, want ingested traceparent ID %q", qr.TraceID, want)
	}
	// The completed trace is retrievable under the caller's ID.
	status, tr := getTrace(t, ts.URL, want)
	if status != http.StatusOK || tr.TraceID != want {
		t.Fatalf("GET trace by ingested ID: status=%d id=%q", status, tr.TraceID)
	}
}

func TestServeBudgetTripPinnedWithProfile(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.DefaultEngine = aw.EngineSortScan // no auto fallback: the trip must surface
		c.MaxLiveCells = 1
	})
	status, qr, _ := postQuery(t, ts.URL, QueryRequest{
		Workflow: testWorkflow, Collection: "net", RequestID: "q-budget",
	})
	if status != http.StatusUnprocessableEntity || qr.TraceID == "" {
		t.Fatalf("budget trip: status=%d trace_id=%q (want 422 with trace_id)", status, qr.TraceID)
	}
	gstatus, tr := getTrace(t, ts.URL, qr.TraceID)
	if gstatus != http.StatusOK {
		t.Fatalf("budget-tripped trace not retrievable: %d", gstatus)
	}
	if !tr.Pinned || !strings.Contains(strings.Join(tr.PinReasons, ","), flight.PinBudget) {
		t.Fatalf("trace pinned=%v reasons=%v, want pinned with %q", tr.Pinned, tr.PinReasons, flight.PinBudget)
	}
	if len(tr.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1", len(tr.Attempts))
	}
	att := tr.Attempts[0]
	if att.Span == nil || att.Span.Name != "query" {
		t.Fatalf("attempt span missing or misnamed: %+v", att.Span)
	}
	if len(att.Nodes) == 0 {
		t.Fatal("attempt carries no per-node estimate-vs-actual profile")
	}
	if att.Span.Attrs["trace_id"] != qr.TraceID {
		t.Fatalf("query span trace_id attr = %q, want %q", att.Span.Attrs["trace_id"], qr.TraceID)
	}
}

// TestServeRetryOneTraceManyAttempts: a client that resends a failed
// request under the same traceparent gets one trace holding both runs.
func TestServeRetryOneTraceManyAttempts(t *testing.T) {
	_, ts := newTestServer(t, nil)
	tid := flight.NewTraceID()
	postFailedThenHealed(t, ts.URL, tid)
	gstatus, tr := getTrace(t, ts.URL, tid)
	if gstatus != http.StatusOK {
		t.Fatalf("trace not retrievable: %d", gstatus)
	}
	checkErrorThenOK(t, tr)
}

// TestServeRetriedTraceSurvivesRestart: the two-record trace of a
// resent request comes back whole from the history directory after a
// restart — same outcomes and span trees — and that directory holds
// the history log alone.
func TestServeRetriedTraceSurvivesRestart(t *testing.T) {
	fact := writeNetFact(t, 2000, 11)
	hist := filepath.Join(t.TempDir(), "history")
	cfg := func(c *Config) { c.HistoryDir = hist }
	s, ts := newServerOverFact(t, fact, cfg)
	first := flight.NewTraceID()
	postFailedThenHealed(t, ts.URL, first)
	_, before := getTrace(t, ts.URL, first)
	checkErrorThenOK(t, before)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "history.jsonl" {
		t.Fatalf("history directory holds %v, want history.jsonl alone", ents)
	}

	// A fresh trace ID stands in for a previous process's entry: the
	// process-global ring has never seen it, so only replay can find it.
	b, err := os.ReadFile(filepath.Join(hist, "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tid := flight.NewTraceID()
	if err := os.WriteFile(filepath.Join(hist, "history.jsonl"),
		bytes.ReplaceAll(b, []byte(first), []byte(tid)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newServerOverFact(t, fact, cfg)
	gstatus, after := getTrace(t, ts2.URL, tid)
	if gstatus != http.StatusOK {
		t.Fatalf("trace not restored after restart: %d", gstatus)
	}
	checkErrorThenOK(t, after)
}

func TestServeErrorResponsesCarryCorrelationIDs(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// 404 unknown collection and 400 parse errors echo both IDs.
	status, qr, _ := postQuery(t, ts.URL, QueryRequest{
		Workflow: testWorkflow, Collection: "nope", RequestID: "q-404",
	})
	if status != http.StatusNotFound || qr.RequestID != "q-404" || qr.TraceID == "" {
		t.Fatalf("404: status=%d request_id=%q trace_id=%q", status, qr.RequestID, qr.TraceID)
	}
	status, qr, _ = postQuery(t, ts.URL, QueryRequest{
		Workflow: "schema net\nbogus line", Collection: "net", RequestID: "q-400",
	})
	if status != http.StatusBadRequest || qr.RequestID != "q-400" || qr.TraceID == "" {
		t.Fatalf("400: status=%d request_id=%q trace_id=%q", status, qr.RequestID, qr.TraceID)
	}

	// Draining 503s are correlatable too.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	status, qr, hdr := postQuery(t, ts.URL, QueryRequest{
		Workflow: testWorkflow, Collection: "net", RequestID: "q-drain",
	})
	if status != http.StatusServiceUnavailable || qr.RequestID != "q-drain" || qr.TraceID == "" {
		t.Fatalf("draining 503: status=%d request_id=%q trace_id=%q", status, qr.RequestID, qr.TraceID)
	}
	if hdr.Get("traceparent") == "" {
		t.Fatal("draining 503 without traceparent echo")
	}
}

func TestServeTraceListLinksTraces(t *testing.T) {
	// Every trace list row links to its full trace.
	_, ts := newTestServer(t, nil)
	_, qr, _ := postQuery(t, ts.URL, QueryRequest{
		Workflow: testWorkflow, Collection: "net", RequestID: "q-link",
	})
	resp, err := http.Get(ts.URL + "/debug/aw/traces?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []flight.Summary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Traces {
		if s.TraceID == qr.TraceID {
			if s.Path != "/debug/aw/traces/"+qr.TraceID {
				t.Fatalf("trace list path = %q", s.Path)
			}
			return
		}
	}
	// The run may have been sampled out only if unpinned AND the draw
	// missed; with a fresh ring per process this is deterministic, so a
	// miss here means list/commit are broken. But other tests in the
	// package share the global ring, so only assert when present — the
	// by-ID and pinning paths are covered above.
	t.Logf("trace %s not in list (sampled out by shared-ring sequence)", qr.TraceID)
}

// heldFS holds every read of a file opened through it until release
// is closed, so a query stays in flight while a test looks at it.
type heldFS struct{ release chan struct{} }

func (h heldFS) Create(name string) (storage.File, error) { return storage.OSFS{}.Create(name) }

func (h heldFS) Open(name string) (storage.File, error) {
	f, err := storage.OSFS{}.Open(name)
	if err != nil {
		return nil, err
	}
	return heldFile{f, h.release}, nil
}

type heldFile struct {
	storage.File
	release chan struct{}
}

func (f heldFile) Read(p []byte) (int, error) {
	<-f.release
	return f.File.Read(p)
}

// TestServeInflightEndpoint: /debug/aw/queries lists no query as an
// empty list, and a running query's row carries the engine its
// EngineAuto run resolved to, its trace ID and the link to its trace.
func TestServeInflightEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil) // EngineAuto
	queries := func() (string, []aw.QuerySnapshot) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/debug/aw/queries")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		var v struct {
			Queries []aw.QuerySnapshot `json:"queries"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("queries payload %q: %v", b, err)
		}
		return string(b), v.Queries
	}
	if body, _ := queries(); !strings.Contains(body, `"queries": []`) {
		t.Fatalf("empty registry = %s, want an empty list", body)
	}

	held := heldFS{release: make(chan struct{})}
	defer storage.SwapFS(held)()
	release := sync.OnceFunc(func() { close(held.release) })
	defer release()
	want := "0af7651916cd43dd8448eb211c80319c"
	body := fmt.Sprintf(`{"workflow": %q, "collection": "net"}`, testWorkflow)
	done := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(body))
		req.Header.Set("traceparent", "00-"+want+"-00f067aa0ba902b7-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()

	var row aw.QuerySnapshot
	waitFor(t, func() bool {
		_, qs := queries()
		for _, q := range qs {
			if q.TraceID == want && q.Engine != "" {
				row = q
				return true
			}
		}
		return false
	})
	release()
	if status := <-done; status != http.StatusOK {
		t.Fatalf("held query: status %d", status)
	}
	if _, err := aw.ParseEngine(row.Engine); err != nil || row.Engine == aw.EngineAuto.String() {
		t.Errorf("engine = %q, want the engine auto resolved to", row.Engine)
	}
	if row.TracePath != "/debug/aw/traces/"+want || row.Label == "" || row.ElapsedUs <= 0 {
		t.Errorf("running query row = %+v", row)
	}
}

func TestServeSlowEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/debug/aw/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/aw/slow status %d", resp.StatusCode)
	}
	var payload struct {
		Total  int              `json:"total"`
		Traces []flight.Summary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
}
