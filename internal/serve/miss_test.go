package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/gen"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// missWorkflow is the busiest of the serve benchmark's eight texts: four
// basic and composite measures over the hourly per-source counts.
const missWorkflow = "schema net\n" +
	"basic Count gran(t=Hour, U=IP) agg=count\n" +
	"rollup sCount gran(t=Hour) src=Count agg=count where \"m0 > 5\"\n" +
	"rollup sTraffic gran(t=Hour) src=Count agg=sum where \"m0 > 5\"\n" +
	"sliding avgCount src=sCount agg=avg window t 0..5\n" +
	"combine ratio src=avgCount,sCount fc=ratio"

// missServer is a server configured as the serve benchmark's cold
// workload configures it — cache off, history on, EngineAuto under a
// 64 MB planning budget — over a 12,500-row generated network log, and
// a function that sends it one query in-process and fails unless it
// answers 200. The server is drained at cleanup.
func missServer(tb testing.TB) func() {
	tb.Helper()
	dir := tb.TempDir()
	fact := filepath.Join(dir, "net.rec")
	if _, _, err := gen.NetLog(fact, 12_500, gen.NetConfig{Seed: 2006}); err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{
		Collections:   map[string]string{"net": fact},
		HistoryDir:    filepath.Join(dir, "history"),
		TempDir:       dir,
		Gate:          GateConfig{MaxConcurrent: 2, QueueDepth: 2, QueueWait: time.Second},
		DefaultEngine: aw.EngineAuto,
		MemoryBudget:  64 << 20,
		Cache:         CacheConfig{Disabled: true},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Drain() })
	body, err := json.Marshal(QueryRequest{Workflow: missWorkflow, Collection: "net"})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	return func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			tb.Fatalf("query answered %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkServeMiss prices one served miss: parse, plan, admission,
// a single-scan run (the first query's history record lets EngineAuto
// choose it), the history append and the response.
func BenchmarkServeMiss(b *testing.B) {
	query := missServer(b)
	query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// TestServeMissAllocationBound: back-to-back misses on one collection
// reuse the scan's read batch and the cell tables' probe segments. The
// bound sits between the 1,785 KB a miss allocated when every request
// made its own batch and segments and the 1,430 KB it allocates with
// them recycled. The race detector's sync.Pool drops a quarter of its
// puts on purpose, which would charge the pool's misses to the request.
func TestServeMissAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	// This test's live heap is about 1 MB, so by default the collector
	// runs about once a request, which a daemon holding its history and
	// cache does not; and an item sync.Pool carries across a collection
	// is found again only from the processor that put it. A higher
	// target keeps the measure on the recycling, not on where the
	// collector fell.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	query := missServer(t)
	for i := 0; i < 5; i++ {
		query()
	}
	const misses, bound = 50, 1_600 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < misses; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / misses; per >= bound {
		t.Errorf("a served miss allocates %d KB, want < %d KB", per>>10, bound>>10)
	}
}
