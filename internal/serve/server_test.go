package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/faultfs"
	"awra/internal/obs"
	"awra/internal/storage"
)

const testWorkflow = `
schema net
basic Count  gran(t=Hour, U=IP) agg=count
rollup Busy  gran(t=Hour) src=Count agg=count where "m0 > 1"
`

// netRecords generates n deterministic synthetic records of the
// paper's Table 1 schema (t, U, T, P — the same shape wfdsl's
// "schema net" declares).
func netRecords(n int, seed int64) []aw.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]aw.Record, n)
	for i := range recs {
		recs[i] = aw.Record{Dims: []int64{
			aw.SecondCode(2004, 3, 1+rng.Intn(3), rng.Intn(24), rng.Intn(60), rng.Intn(60)),
			aw.IPCode(1, rng.Intn(4), rng.Intn(4), rng.Intn(50)),
			aw.IPCode(10, 0, rng.Intn(8), rng.Intn(256)),
			int64(rng.Intn(1024)),
		}, Ms: []float64{}}
	}
	return recs
}

// writeNetFact writes n synthetic records to a fresh fact file.
func writeNetFact(t *testing.T, n int, seed int64) string {
	t.Helper()
	fact := filepath.Join(t.TempDir(), "fact.rec")
	if err := storage.WriteAll(fact, 4, 0, netRecords(n, seed)); err != nil {
		t.Fatal(err)
	}
	return fact
}

// newServerOverFact builds a server over an existing fact file with
// fast defaults; mutate cfg before New via the optional tweak.
func newServerOverFact(t *testing.T, fact string, tweak func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Collections:   map[string]string{"net": fact},
		HistoryDir:    filepath.Join(t.TempDir(), "history"),
		TempDir:       t.TempDir(),
		Gate:          GateConfig{MaxConcurrent: 4, QueueDepth: 4, QueueWait: 200 * time.Millisecond},
		DefaultEngine: aw.EngineAuto,
		DrainTimeout:  5 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Drain()
	})
	return s, ts
}

// newTestServer is newServerOverFact over a fresh 2000-record fact.
func newTestServer(t *testing.T, tweak func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	return newServerOverFact(t, writeNetFact(t, 2000, 11), tweak)
}

// swapFaultFS installs a process-global fault-injecting filesystem and
// returns its restore func. History writes bypass it (qlog uses the OS
// directly), so injected faults hit only query reads.
func swapFaultFS(t *testing.T, arm func(*faultfs.FS)) func() {
	t.Helper()
	fs := faultfs.New()
	arm(fs)
	return storage.SwapFS(fs)
}

func postQuery(t *testing.T, url string, req QueryRequest) (int, QueryResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, qr, resp.Header
}

func TestServeQueryOK(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, qr, _ := postQuery(t, ts.URL, QueryRequest{
		Workflow: testWorkflow, Collection: "net", RequestID: "q-1", Limit: 5,
	})
	if status != http.StatusOK || qr.Outcome != "ok" {
		t.Fatalf("status=%d outcome=%q error=%q", status, qr.Outcome, qr.Error)
	}
	if qr.RequestID != "q-1" || qr.ServedFrom != "" || qr.Engine == "" {
		t.Fatalf("envelope: %+v", qr)
	}
	for _, m := range []string{"Count", "Busy"} {
		rows := qr.Measures[m]
		if len(rows) == 0 || len(rows) > 5 {
			t.Fatalf("measure %s: %d rows, want 1..5", m, len(rows))
		}
		if rows[0].Region == "" || rows[0].Value <= 0 {
			t.Fatalf("measure %s row 0: %+v", m, rows[0])
		}
	}
}

func TestServeErrorMapping(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxResultRows = 3 })

	// Unknown collection.
	status, qr, _ := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "nope"})
	if status != http.StatusNotFound || !strings.Contains(qr.Error, "unknown collection") {
		t.Fatalf("unknown collection: status=%d %+v", status, qr)
	}

	// Workflow that does not parse.
	status, qr, _ = postQuery(t, ts.URL, QueryRequest{Workflow: "schema net\nbogus x", Collection: "net"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad workflow: status=%d %+v", status, qr)
	}

	// Unknown engine name.
	status, _, _ = postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net", Engine: "warp"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad engine: status=%d", status)
	}

	// A query over its result-row allowance is the client's problem.
	status, qr, _ = postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net", RequestID: "big-1"})
	if status != http.StatusUnprocessableEntity || qr.Outcome != "error" {
		t.Fatalf("budget trip: status=%d %+v", status, qr)
	}

	// GET is not a query.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status=%d", resp.StatusCode)
	}

	// Budget trips and parse failures logged exactly one history record
	// for the IDed request.
	var n int
	for _, r := range s.History().Recent(50) {
		if r.RequestID == "big-1" {
			n++
			if r.Outcome != aw.OutcomeBudget {
				t.Errorf("big-1 outcome = %q, want budget", r.Outcome)
			}
		}
	}
	if n != 1 {
		t.Errorf("big-1 history records = %d, want 1", n)
	}
}

// TestServeUnknownMeasureRejected: a measure the workflow does not
// output is a bad request, refused before the cache and admission — with
// the cache warm and the only slot taken, it still gets a 400 naming the
// measure and the outputs, not a 200 with no table — while a measure the
// workflow does output is answered alone.
func TestServeUnknownMeasureRejected(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Gate = GateConfig{MaxConcurrent: 1, QueueDepth: 0}
	})
	if status, qr, _ := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net"}); status != http.StatusOK {
		t.Fatalf("warm-up: status=%d %+v", status, qr)
	}
	release, err := s.Gate().Admit(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	status, qr, _ := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net", Measure: "Bussy", RequestID: "typo-1"})
	if status != http.StatusBadRequest || qr.Outcome != "error" || qr.Measures != nil {
		t.Fatalf("unknown measure: status=%d %+v", status, qr)
	}
	for _, want := range []string{`"Bussy"`, "Count", "Busy"} {
		if !strings.Contains(qr.Error, want) {
			t.Errorf("error %q does not name %s", qr.Error, want)
		}
	}
	for _, r := range s.History().Recent(50) {
		if r.RequestID == "typo-1" {
			t.Errorf("a rejected request reached the history: %+v", r)
		}
	}

	status, qr, _ = postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net", Measure: "Busy"})
	if status != http.StatusOK || qr.ServedFrom != "cache" || len(qr.Measures) != 1 || len(qr.Measures["Busy"]) == 0 {
		t.Fatalf("known measure: status=%d %+v", status, qr)
	}
}

// TestServeLatencyCoversResponse: the request-latency histogram times
// the whole answer, so on cache hits over a table of thousands of rows
// it sums to more than the envelopes' duration_us, which stop before
// ranking the rows and writing the response.
func TestServeLatencyCoversResponse(t *testing.T) {
	s, ts := newServerOverFact(t, writeNetFact(t, 5000, 13), nil)
	req := QueryRequest{Workflow: "schema net\nbasic Count gran(t=Second, U=IP) agg=count", Collection: "net"}
	if status, qr, _ := postQuery(t, ts.URL, req); status != http.StatusOK || qr.ServedFrom != "" {
		t.Fatalf("cold run: status=%d %+v", status, qr)
	}
	const hits = 20
	var envelope int64
	for i := 0; i < hits; i++ {
		status, qr, _ := postQuery(t, ts.URL, req)
		if status != http.StatusOK || qr.ServedFrom != "cache" {
			t.Fatalf("hit %d: status=%d %+v", i, status, qr)
		}
		envelope += qr.DurationUs
	}
	h := s.rec.Histogram(obs.HServeLatencyUs, "outcome", "cache_hit")
	waitFor(t, func() bool { return h.Count() == hits })
	if h.Sum() <= envelope {
		t.Errorf("latency histogram sums to %d us over %d hits, envelopes to %d us", h.Sum(), hits, envelope)
	}
}

// TestServeResponseIsCompactJSON: a /query answer is one line, exactly
// the compact encoding of the QueryResponse it decodes to.
func TestServeResponseIsCompactJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body, err := json.Marshal(QueryRequest{Workflow: testWorkflow, Collection: "net", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	line, ok := bytes.CutSuffix(raw, []byte("\n"))
	if !ok || bytes.ContainsAny(line, "\n") {
		t.Fatalf("response is not one newline-terminated line:\n%s", raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(line, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Outcome != "ok" || len(qr.Measures["Busy"]) == 0 {
		t.Fatalf("response %+v", qr)
	}
	if again, err := json.Marshal(qr); err != nil || !bytes.Equal(again, line) {
		t.Fatalf("body is not the compact encoding of its response (%v):\n%s\n%s", err, line, again)
	}
}

func TestServeOverLimit429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Gate = GateConfig{MaxConcurrent: 1, QueueDepth: 0}
	})
	// Occupy the only slot from outside, then knock on the front door.
	release, err := s.Gate().Admit(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	status, qr, hdr := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%+v)", status, qr)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	// Same-tenant second query: per-tenant limit, also 429.
	release2, err := s.Gate().Admit(context.Background(), "default")
	if err == nil {
		release2()
		t.Fatal("second slot existed")
	}
	if !isReason(err, ReasonQueueFull) {
		t.Fatalf("got %v", err)
	}
}

// TestServeRetryTransientIdempotent: a client resends a request that
// failed with a 500 under the same request_id once the fault has
// healed; the history keeps one record for it, the successful one.
func TestServeRetryTransientIdempotent(t *testing.T) {
	s, ts := newTestServer(t, nil)
	req := QueryRequest{Workflow: testWorkflow, Collection: "net", RequestID: "flaky-1"}

	restore := swapFaultFS(t, func(fs *faultfs.FS) { fs.FailReadAfter(0) })
	status, qr, _ := postQuery(t, ts.URL, req)
	restore()
	if status != http.StatusInternalServerError || qr.Outcome != "error" || qr.Error == "" {
		t.Fatalf("under the fault: status=%d %+v, want a 500 with its error", status, qr)
	}

	status, qr, _ = postQuery(t, ts.URL, req)
	if status != http.StatusOK || qr.Outcome != "ok" || qr.ServedFrom != "" {
		t.Fatalf("healed: status=%d %+v, want 200 from an engine run", status, qr)
	}

	// Exactly one history record for the resent ID, with the final
	// outcome.
	var n int
	for _, r := range s.History().Recent(50) {
		if r.RequestID == "flaky-1" {
			n++
			if r.Outcome != aw.OutcomeOK {
				t.Errorf("flaky-1 outcome = %q, want ok", r.Outcome)
			}
		}
	}
	if n != 1 {
		t.Fatalf("flaky-1 history records = %d, want exactly 1", n)
	}
}

func TestServeObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if status, _, _ := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net"}); status != 200 {
		t.Fatalf("seed query: %d", status)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if st, body := get("/healthz"); st != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", st, body)
	}
	if st, body := get("/readyz"); st != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("readyz: %d %q", st, body)
	}
	st, body := get("/metrics")
	if st != 200 {
		t.Fatalf("metrics: %d", st)
	}
	for _, want := range []string{
		"awra_" + obs.MServeRequests, "awra_" + obs.MServeAdmitted, "awra_" + obs.MServeShed,
		"awra_" + obs.GServeActive, "awra_" + obs.HServeLatencyUs,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	if st, body := get("/debug/aw/queries"); st != 200 || !json.Valid([]byte(body)) {
		t.Fatalf("debug queries: %d %q", st, body)
	}
	st, body = get("/debug/aw/history")
	if st != 200 || !json.Valid([]byte(body)) {
		t.Fatalf("debug history: %d", st)
	}
	if !strings.Contains(body, `"total_runs": 1`) {
		t.Errorf("history summary does not show the run:\n%s", body)
	}
}

func TestServeDegradedUnderOverload(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Overload = OverloadConfig{HighP95: time.Nanosecond}
		c.MemoryBudget = 1 << 30
		// The second (identical) query must actually execute to observe
		// the degraded ladder — a cache hit would bypass it.
		c.Cache.Disabled = true
	})
	// Any completed request trips the nanosecond p95 threshold.
	if status, _, _ := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net"}); status != 200 {
		t.Fatal("seed query failed")
	}
	if s.Controller().Level() < LevelDegraded {
		t.Fatalf("level = %d, want >= degraded", s.Controller().Level())
	}
	status, qr, _ := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net"})
	if status != 200 || !qr.Degraded {
		t.Fatalf("degraded run: status=%d %+v", status, qr)
	}
}

// TestParseWorkflowCacheBounded: workflow texts come from clients, so
// the compiled-workflow cache never holds more than wfCacheMax entries
// however many distinct texts arrive, and a repeated text is served
// from it.
func TestParseWorkflowCacheBounded(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for i := 0; i < 2*wfCacheMax+10; i++ {
		text := fmt.Sprintf("schema net\nbasic Count gran(t=Hour, U=IP) agg=count\nrollup Busy gran(t=Hour) src=Count agg=count where \"m0 > %d\"", i)
		p, err := s.parseWorkflow(text)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := s.parseWorkflow(text); again != p {
			t.Fatalf("text %d: a repeated text was compiled again", i)
		}
		s.wfMu.Lock()
		n := len(s.wfCache)
		s.wfMu.Unlock()
		if n > wfCacheMax {
			t.Fatalf("after %d texts the cache holds %d entries, cap %d", i+1, n, wfCacheMax)
		}
	}
}
