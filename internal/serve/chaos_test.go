package serve

// The acceptance chaos test: concurrent queries at twice the admission
// limit against storage under sustained injected read faults. The
// service must never panic or deadlock, every response must be a clean
// 200, a 429/503 (admission), or a 500 that carries the fault's error —
// and afterwards the in-flight registry is empty, the gate is idle, and
// the history holds exactly one record per executed request.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/faultfs"
)

func TestServeChaos(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Gate = GateConfig{MaxConcurrent: 3, QueueDepth: 3, QueueWait: 2 * time.Second}
		// Every request executes: with the cache on, the first answer
		// would serve the rest and no fault would land.
		c.Cache.Disabled = true
	})
	// Sustained pressure: every 20th read call fails, so faults land
	// mid-query at unpredictable points across concurrent requests.
	restore := swapFaultFS(t, func(fs *faultfs.FS) { fs.FailReadEvery(20) })
	defer restore()

	const clients = 12 // 2x over MaxConcurrent+QueueDepth
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		byStatus = map[int]int{}
		ran      = map[string]bool{}
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				id := fmt.Sprintf("chaos-%d-%d", i, j)
				status, qr, hdr := postQuery(t, ts.URL, QueryRequest{
					Workflow: testWorkflow, Collection: "net", RequestID: id,
					Tenant: fmt.Sprintf("tenant-%d", i%3),
				})
				mu.Lock()
				byStatus[status]++
				if status == http.StatusOK || status == http.StatusInternalServerError {
					ran[id] = true
				}
				mu.Unlock()
				switch status {
				case http.StatusOK:
					if qr.Outcome != "ok" || len(qr.Measures) == 0 {
						t.Errorf("%s: 200 with %+v", id, qr)
					}
				case http.StatusTooManyRequests:
					if hdr.Get("Retry-After") == "" {
						t.Errorf("%s: 429 without Retry-After", id)
					}
					if qr.Measures != nil {
						t.Errorf("%s: shed request returned data", id)
					}
				case http.StatusInternalServerError:
					if qr.Outcome != "error" || qr.Error == "" || qr.Measures != nil {
						t.Errorf("%s: 500 without an error, or with data: %+v", id, qr)
					}
				default:
					t.Errorf("%s: unexpected status %d (%+v)", id, status, qr)
				}
			}
		}(i)
	}
	wg.Wait()

	if byStatus[http.StatusOK] == 0 {
		t.Fatal("no query succeeded under chaos")
	}
	t.Logf("status mix under chaos: %v", byStatus)

	// Quiescence: nothing in flight, no slot leaked, queue empty.
	if got := aw.InflightQueries(); len(got) != 0 {
		t.Errorf("in-flight registry not empty after chaos: %d entries", len(got))
	}
	if s.Gate().Active() != 0 || queueDepth(s.Gate()) != 0 {
		t.Errorf("gate not idle: active=%d waiting=%d", s.Gate().Active(), queueDepth(s.Gate()))
	}

	// History consistency: exactly one record per executed request (200
	// or 500), none for shed ones.
	seen := map[string]int{}
	for _, r := range s.History().Recent(500) {
		seen[r.RequestID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("request %s has %d history records, want 1", id, n)
		}
	}
	if len(seen) != len(ran) {
		t.Errorf("history holds %d requests, %d executed", len(seen), len(ran))
	}
	executed := int64(byStatus[http.StatusOK] + byStatus[http.StatusInternalServerError])
	if got := s.History().Len(); got != executed {
		t.Errorf("history Len = %d, want %d (one per executed request)", got, executed)
	}
}
