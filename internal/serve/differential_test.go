package serve

// The differential/metamorphic harness for the result cache: every
// answer the service produces — runs across every engine and option
// combination, cache hits, concurrent fan-outs, answers computed under
// injected faults and concurrent invalidation — is replayed cold
// through the serial single-scan engine and must be BIT-IDENTICAL (eps
// 0, reflect.DeepEqual on the decoded float64s). The workflows are
// count-derived, so every value is an exact small rational: sums and
// counts of integers are exact in float64, their ratios deterministic,
// and Go's JSON encoder round-trips float64 exactly — any engine- or
// cache-induced deviation shows up as a hard mismatch, not an epsilon
// wobble.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/faultfs"
	"awra/internal/obs"
	"awra/internal/storage"
	"awra/internal/wfdsl"
)

// diffLimit is large enough that responses carry every result row, so
// equality checks cover full tables, not a top-K prefix.
const diffLimit = 1 << 20

// diffWorkflows spans the measure taxonomy — basic, filtered rollup,
// combine (ratio), sliding window, dimension predicate — while staying
// count-derived (the net fact file declares no fact measures, and
// NULL-free outputs keep the HTTP JSON layer exact).
var diffWorkflows = map[string]string{
	"count":  "schema net\nbasic Count gran(t=Hour, U=IP) agg=count",
	"rollup": testWorkflow,
	"share": `schema net
basic   Count gran(t=Hour, U=IP) agg=count
rollup  Busy  gran(t=Hour) src=Count agg=count where "m0 > 1"
rollup  Tot   gran(t=Hour) src=Count agg=count
combine Share src=Busy,Tot fc=ratio`,
	"sliding": "schema net\nbasic Count gran(t=Hour) agg=count\nsliding Avg6 src=Count agg=avg window t -5..0",
	"dim":     "schema net\nbasic HiPort gran(t=Day, T=/24) agg=count where \"dim P > 512\"",
}

// coldMeasures is the oracle: parse the workflow text and run it cold
// through the serial single-scan engine over the fact file, projecting
// the full tables exactly as the server projects responses.
func coldMeasures(t *testing.T, fact, wfText string) map[string][]ValueAt {
	t.Helper()
	parsed, err := wfdsl.Parse(wfText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aw.RunCompiled(context.Background(), parsed.Compiled, aw.FromFile(fact),
		aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineSingleScan}, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return topkMeasures(res, QueryRequest{Limit: diffLimit})
}

// oracleSet precomputes the cold oracle for every diff workflow.
func oracleSet(t *testing.T, fact string) map[string]map[string][]ValueAt {
	t.Helper()
	out := make(map[string]map[string][]ValueAt, len(diffWorkflows))
	for name, wf := range diffWorkflows {
		out[name] = coldMeasures(t, fact, wf)
	}
	return out
}

func requireIdentical(t *testing.T, ctxLabel string, got, want map[string][]ValueAt) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: measures diverge from the cold serial oracle\ngot:  %v\nwant: %v", ctxLabel, got, want)
	}
}

// TestServeDifferentialEngineMatrix drives every engine over every
// workflow (cache off, so each query really executes) and requires
// bit-identity with the cold single-scan oracle.
func TestServeDifferentialEngineMatrix(t *testing.T) {
	fact := writeNetFact(t, 2000, 11)
	oracles := oracleSet(t, fact)
	_, ts := newServerOverFact(t, fact, func(c *Config) { c.Cache.Disabled = true })

	for _, engine := range []string{"auto", "sortscan", "singlescan", "multipass", "shardscan"} {
		for name, wf := range diffWorkflows {
			if engine == "shardscan" && name == "sliding" {
				// A sliding window along the shard dimension legitimately
				// refuses to shard; not a differential case.
				continue
			}
			id := fmt.Sprintf("diff-%s-%s", engine, name)
			status, qr, _ := postQuery(t, ts.URL, QueryRequest{
				Workflow: wf, Collection: "net", RequestID: id,
				Engine: engine, Limit: diffLimit,
			})
			if status != http.StatusOK || qr.Outcome != "ok" {
				t.Fatalf("%s: status=%d outcome=%q error=%q", id, status, qr.Outcome, qr.Error)
			}
			if qr.ServedFrom != "" {
				t.Fatalf("%s: served_from=%q with cache disabled", id, qr.ServedFrom)
			}
			requireIdentical(t, id, qr.Measures, oracles[name])
		}
	}
}

// TestServeDifferentialOptionCombos runs every workflow under option
// combinations that change plans but must never change answers —
// memory budgets, parallelism, degraded corrupt-row skipping — and
// requires bit-identity with the oracle.
func TestServeDifferentialOptionCombos(t *testing.T) {
	fact := writeNetFact(t, 2000, 11)
	oracles := oracleSet(t, fact)

	combos := []struct {
		name  string
		tweak func(*Config)
	}{
		{"tight-budget", func(c *Config) { c.MemoryBudget = 1 << 18 }},
		{"mid-budget", func(c *Config) { c.MemoryBudget = 1 << 20 }},
		{"parallel", func(c *Config) { c.Parallelism = 2 }},
		{"skip-corrupt", func(c *Config) { c.SkipCorruptRows = true }},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			_, ts := newServerOverFact(t, fact, func(c *Config) {
				c.Cache.Disabled = true
				combo.tweak(c)
			})
			for name, wf := range diffWorkflows {
				id := fmt.Sprintf("diff-%s-%s", combo.name, name)
				status, qr, _ := postQuery(t, ts.URL, QueryRequest{
					Workflow: wf, Collection: "net", RequestID: id, Limit: diffLimit,
				})
				if status != http.StatusOK || qr.Outcome != "ok" {
					t.Fatalf("%s: status=%d outcome=%q error=%q", id, status, qr.Outcome, qr.Error)
				}
				requireIdentical(t, id, qr.Measures, oracles[name])
			}
		})
	}
}

// TestServeCacheHitBitIdentical proves the tentpole property for the
// cache: a hit returns the same bytes the computing run returned, and
// both equal the cold oracle. Provenance, metrics, the debug endpoint,
// and the measured-statistics firewall are checked alongside.
func TestServeCacheHitBitIdentical(t *testing.T) {
	fact := writeNetFact(t, 2000, 11)
	oracles := oracleSet(t, fact)
	s, ts := newServerOverFact(t, fact, nil)

	ms0 := s.History().MeasuredStats()
	for name, wf := range diffWorkflows {
		cold, _, _ := postQuery(t, ts.URL, QueryRequest{
			Workflow: wf, Collection: "net", RequestID: "warm-" + name, Limit: diffLimit,
		})
		if cold != http.StatusOK {
			t.Fatalf("warm %s: status=%d", name, cold)
		}
	}
	msWarm := s.History().MeasuredStats()
	if msWarm <= ms0 {
		t.Fatalf("executed runs contributed no measured statistics (%d -> %d)", ms0, msWarm)
	}

	firstTrace := map[string]string{}
	for name, wf := range diffWorkflows {
		status, qr, _ := postQuery(t, ts.URL, QueryRequest{
			Workflow: wf, Collection: "net", RequestID: "hit-" + name, Limit: diffLimit,
		})
		if status != http.StatusOK || qr.Outcome != "ok" {
			t.Fatalf("hit %s: status=%d %+v", name, status, qr)
		}
		if qr.ServedFrom != "cache" {
			t.Fatalf("hit %s: served_from=%q, want cache", name, qr.ServedFrom)
		}
		if qr.SourceTraceID == "" || qr.SourceTraceID == qr.TraceID {
			t.Fatalf("hit %s: source_trace_id=%q must name the computing run, not itself (%q)",
				name, qr.SourceTraceID, qr.TraceID)
		}
		firstTrace[name] = qr.SourceTraceID
		requireIdentical(t, "hit "+name, qr.Measures, oracles[name])
	}

	// Cache hits must never feed measured statistics.
	if got := s.History().MeasuredStats(); got != msWarm {
		t.Fatalf("cache hits changed measured statistics: %d -> %d", msWarm, got)
	}
	// And each hit logged exactly one history record with the cache_hit
	// outcome and provenance.
	for name := range diffWorkflows {
		var n int
		for _, r := range s.History().Recent(100) {
			if r.RequestID != "hit-"+name {
				continue
			}
			n++
			if r.Outcome != aw.OutcomeCacheHit || r.ServedFrom != "cache" || r.SourceTraceID != firstTrace[name] {
				t.Errorf("hit-%s record: outcome=%q served_from=%q source=%q", name, r.Outcome, r.ServedFrom, r.SourceTraceID)
			}
		}
		if n != 1 {
			t.Errorf("hit-%s: %d history records, want 1", name, n)
		}
	}

	snap := s.cache.Snapshot()
	if snap.Entries != len(diffWorkflows) || snap.Hits < int64(len(diffWorkflows)) {
		t.Fatalf("cache snapshot: %d entries %d hits, want %d entries and >= %d hits",
			snap.Entries, snap.Hits, len(diffWorkflows), len(diffWorkflows))
	}
	if got := s.rec.Counter(obs.MServeCacheHits).Value(); got != snap.Hits {
		t.Fatalf("hit counter %d disagrees with snapshot %d", got, snap.Hits)
	}
}

// TestServeShareDifferentialFanout launches six concurrent queries over
// three workflows with the cache off: every answer must come from its
// own engine run (served_from empty), be bit-identical to the cold
// oracle, and leave exactly one history record.
func TestServeShareDifferentialFanout(t *testing.T) {
	fact := writeNetFact(t, 2000, 11)
	oracles := oracleSet(t, fact)
	s, ts := newServerOverFact(t, fact, func(c *Config) {
		c.Cache.Disabled = true
		c.Gate = GateConfig{MaxConcurrent: 8, QueueDepth: 8, QueueWait: 2 * time.Second}
	})

	names := []string{"count", "rollup", "share", "count", "rollup", "share"}
	replies := make([]QueryResponse, len(names))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			id := fmt.Sprintf("fan-%d-%s", i, name)
			status, qr, _ := postQuery(t, ts.URL, QueryRequest{
				Workflow: diffWorkflows[name], Collection: "net",
				RequestID: id, Limit: diffLimit,
			})
			if status != http.StatusOK || qr.Outcome != "ok" {
				t.Errorf("%s: status=%d %+v", id, status, qr)
			}
			replies[i] = qr
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, qr := range replies {
		if qr.ServedFrom != "" {
			t.Errorf("%s: served_from=%q with cache disabled", qr.RequestID, qr.ServedFrom)
		}
		requireIdentical(t, qr.RequestID, qr.Measures, oracles[names[i]])
	}

	seen := map[string]int{}
	for _, r := range s.History().Recent(100) {
		seen[r.RequestID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("request %s has %d history records, want 1", id, n)
		}
	}
	if len(seen) != len(names) {
		t.Errorf("history holds %d requests, want %d", len(seen), len(names))
	}
}

// writeFactState atomically replaces the fact file with n records
// (write-to-temp + rename, so concurrent readers see the old or the
// new state, never a torn one).
func writeFactState(t *testing.T, fact string, n int, seed int64) {
	t.Helper()
	tmp := fact + ".tmp"
	if err := storage.WriteAll(tmp, 4, 0, netRecords(n, seed)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, fact); err != nil {
		t.Fatal(err)
	}
}

// TestServeCacheInvalidationChurn is the -race concurrency test: N
// clients fire identical and distinct queries while an appender
// rewrites the collection mid-flight. Every 200 must match the cold
// oracle of one of the states the file actually passed through, and
// once the final write is acknowledged no stale answer may surface —
// cached or not.
func TestServeCacheInvalidationChurn(t *testing.T) {
	dir := t.TempDir()
	fact := filepath.Join(dir, "fact.rec")

	// Three file states the appender cycles through, each with its own
	// oracle, computed from identical bytes written elsewhere.
	type state struct{ n, seed int }
	states := []state{{1500, 21}, {2100, 22}, {1800, 23}}
	oracleFor := func(st state, wf string) map[string][]ValueAt {
		p := filepath.Join(t.TempDir(), "oracle.rec")
		if err := storage.WriteAll(p, 4, 0, netRecords(st.n, int64(st.seed))); err != nil {
			t.Fatal(err)
		}
		return coldMeasures(t, p, wf)
	}
	wfs := []string{"rollup", "count"}
	oracles := map[string][]map[string][]ValueAt{} // wf -> per-state oracle
	for _, wf := range wfs {
		for _, st := range states {
			oracles[wf] = append(oracles[wf], oracleFor(st, diffWorkflows[wf]))
		}
	}

	writeFactState(t, fact, states[0].n, int64(states[0].seed))
	s, ts := newServerOverFact(t, fact, func(c *Config) {
		// One-pass engine: a rename mid-query leaves the scan on the old
		// inode, so every answer reflects exactly one state.
		c.DefaultEngine = aw.EngineSingleScan
		c.Gate = GateConfig{MaxConcurrent: 8, QueueDepth: 8, QueueWait: 2 * time.Second}
	})

	// The appender: cycle the states, ending deterministically on the
	// last one.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 1; i <= 24; i++ {
			st := states[i%len(states)]
			writeFactState(t, fact, st.n, int64(st.seed))
			time.Sleep(2 * time.Millisecond)
		}
		final := states[len(states)-1]
		writeFactState(t, fact, final.n, int64(final.seed))
	}()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < 12; j++ {
				wf := wfs[(c+j)%len(wfs)]
				id := fmt.Sprintf("churn-%d-%d", c, j)
				status, qr, _ := postQuery(t, ts.URL, QueryRequest{
					Workflow: diffWorkflows[wf], Collection: "net", RequestID: id, Limit: diffLimit,
				})
				if status != http.StatusOK || qr.Outcome != "ok" {
					t.Errorf("%s: status=%d %+v", id, status, qr)
					continue
				}
				// The answer must be SOME state's truth — bit-identical to
				// one of the oracles — never a chimera of two states.
				matched := false
				for _, want := range oracles[wf] {
					if reflect.DeepEqual(qr.Measures, want) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s (served_from=%q): answer matches NO file state the collection passed through", id, qr.ServedFrom)
				}
			}
		}(c)
	}
	wg.Wait()
	<-churnDone

	// Churn over: the final state is acknowledged. The next answers must
	// be the final oracle — and the second one must be a genuine hit.
	finalIdx := len(states) - 1
	for round := 0; round < 2; round++ {
		status, qr, _ := postQuery(t, ts.URL, QueryRequest{
			Workflow: diffWorkflows["rollup"], Collection: "net",
			RequestID: fmt.Sprintf("settle-%d", round), Limit: diffLimit,
		})
		if status != http.StatusOK {
			t.Fatalf("settle-%d: status=%d %+v", round, status, qr)
		}
		requireIdentical(t, fmt.Sprintf("settle-%d", round), qr.Measures, oracles["rollup"][finalIdx])
		if round == 1 && qr.ServedFrom != "cache" {
			t.Fatalf("settle-1: served_from=%q, want cache (unchanged file, repeated query)", qr.ServedFrom)
		}
	}

	// One more acknowledged invalidation: rewrite the file once, then
	// query. A stale cached answer here would be the bug this whole test
	// exists to catch.
	inv0 := s.rec.Counter(obs.MServeCacheInvalidations).Value()
	post := state{1900, 24}
	postOracle := oracleFor(post, diffWorkflows["rollup"])
	writeFactState(t, fact, post.n, int64(post.seed))
	status, qr, _ := postQuery(t, ts.URL, QueryRequest{
		Workflow: diffWorkflows["rollup"], Collection: "net", RequestID: "post-inv", Limit: diffLimit,
	})
	if status != http.StatusOK {
		t.Fatalf("post-inv: status=%d %+v", status, qr)
	}
	if qr.ServedFrom == "cache" {
		t.Fatal("post-inv: served from cache after the file changed — stale hit")
	}
	requireIdentical(t, "post-inv", qr.Measures, postOracle)
	if got := s.rec.Counter(obs.MServeCacheInvalidations).Value(); got <= inv0 {
		t.Fatalf("invalidations counter did not move past the acknowledged rewrite (%d -> %d)", inv0, got)
	}
}

// TestServeChaosWithCache is the chaos test with the cache in play:
// concurrent repeated queries under sustained injected read faults.
// Every 200 — executed or cached — must equal the cold oracle, every
// 500 must carry its error, every cache entry must hold
// oracle-identical tables (a failed run must never populate), and the
// one-history-record-per-request invariant must survive cache hits.
func TestServeChaosWithCache(t *testing.T) {
	fact := writeNetFact(t, 2000, 11)

	// Each client owns a distinct rollup variant (distinct workflow
	// fingerprint), so every client executes at least one real run under
	// fault pressure; repeats within a client and the shared final-round
	// "count" query exercise hits and same-key Put/Get races.
	const clients = 10
	variant := func(i int) string {
		return fmt.Sprintf("schema net\nbasic Count gran(t=Hour, U=IP) agg=count\nrollup Busy gran(t=Hour) src=Count agg=count where \"m0 > %d\"", i)
	}
	wfText := func(i, j int) (string, string) {
		if j == 3 {
			return "count", diffWorkflows["count"]
		}
		return fmt.Sprintf("variant-%d", i), variant(i)
	}
	// Oracles, computed before faults are armed.
	oracles := map[string]map[string][]ValueAt{"count": coldMeasures(t, fact, diffWorkflows["count"])}
	for i := 0; i < clients; i++ {
		oracles[fmt.Sprintf("variant-%d", i)] = coldMeasures(t, fact, variant(i))
	}

	s, ts := newServerOverFact(t, fact, func(c *Config) {
		c.Gate = GateConfig{MaxConcurrent: 3, QueueDepth: 3, QueueWait: 2 * time.Second}
	})
	restore := swapFaultFS(t, func(fs *faultfs.FS) { fs.FailReadEvery(10) })
	defer restore()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		executed = map[string]bool{}
		hits     int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				name, text := wfText(i, j)
				id := fmt.Sprintf("cchaos-%d-%d", i, j)
				status, qr, _ := postQuery(t, ts.URL, QueryRequest{
					Workflow: text, Collection: "net", RequestID: id, Limit: diffLimit,
				})
				switch status {
				case http.StatusOK:
					if !reflect.DeepEqual(qr.Measures, oracles[name]) {
						t.Errorf("%s (served_from=%q): answer diverges from oracle under faults",
							id, qr.ServedFrom)
					}
					mu.Lock()
					executed[id] = true
					if qr.ServedFrom == "cache" {
						hits++
					}
					mu.Unlock()
				case http.StatusInternalServerError:
					if qr.Outcome != "error" || qr.Error == "" || qr.Measures != nil {
						t.Errorf("%s: 500 without an error, or with data: %+v", id, qr)
					}
					mu.Lock()
					executed[id] = true
					mu.Unlock()
				case http.StatusTooManyRequests:
					// Shed; nothing to verify.
				default:
					t.Errorf("%s: unexpected status %d (%+v)", id, status, qr)
				}
			}
		}(i)
	}
	wg.Wait()

	// Every cached entry must be oracle-identical: a failed run
	// populating the cache would surface right here.
	wfKeys := map[string]string{}
	for j := 0; j <= 3; j += 3 {
		for i := 0; i < clients; i++ {
			name, text := wfText(i, j)
			parsed, err := wfdsl.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			wfKeys[cacheKey(fact, parsed.Compiled.Fingerprint(), false)] = name
		}
	}
	s.cache.mu.Lock()
	entries := make(map[string]aw.Results, len(s.cache.byKey))
	for k, el := range s.cache.byKey {
		entries[k] = el.Value.(*cacheEntry).res
	}
	s.cache.mu.Unlock()
	if len(entries) == 0 {
		t.Fatal("no query populated the cache under chaos")
	}
	for k, res := range entries {
		name, ok := wfKeys[k]
		if !ok {
			t.Fatalf("cache holds an entry for an unknown key %q", k)
		}
		requireIdentical(t, "cached "+name, topkMeasures(res, QueryRequest{Limit: diffLimit}), oracles[name])
	}

	// History invariant: exactly one record per executed request (200 or
	// 500, cache hit or real run), none for shed ones.
	seen := map[string]int{}
	for _, r := range s.History().Recent(500) {
		seen[r.RequestID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("request %s has %d history records, want 1", id, n)
		}
	}
	if len(seen) != len(executed) {
		t.Errorf("history holds %d requests, %d executed", len(seen), len(executed))
	}
	if int64(hits) != s.rec.Counter(obs.MServeCacheHits).Value() {
		t.Errorf("responses marked cache=%d, hit counter=%d", hits, s.rec.Counter(obs.MServeCacheHits).Value())
	}
	t.Logf("chaos-with-cache: %d executed, %d cache hits, %d entries",
		len(executed), hits, len(entries))
}

// TestServeCacheFailedRunNeverPopulates drives a query to a 500 (every
// read fails) and proves the cache stayed empty; after the
// fault heals, the same request ID executes, and its replay is served
// as a hit — the idempotent-replay path the issue requires.
func TestServeCacheFailedRunNeverPopulates(t *testing.T) {
	fact := writeNetFact(t, 2000, 11)
	oracle := coldMeasures(t, fact, diffWorkflows["rollup"])
	s, ts := newServerOverFact(t, fact, nil)
	restore := swapFaultFS(t, func(fs *faultfs.FS) { fs.FailReadAfter(0) })
	healed := false
	defer func() {
		if !healed {
			restore()
		}
	}()

	status, qr, _ := postQuery(t, ts.URL, QueryRequest{
		Workflow: diffWorkflows["rollup"], Collection: "net", RequestID: "replay-1", Limit: diffLimit,
	})
	if status != http.StatusInternalServerError {
		t.Fatalf("under total read failure: status=%d %+v", status, qr)
	}
	if s.cache.Len() != 0 {
		t.Fatalf("failed run populated the cache: %d entries", s.cache.Len())
	}
	if snap := s.cache.Snapshot(); snap.Entries != 0 || snap.Hits != 0 {
		t.Fatalf("cache snapshot after failure: %+v", snap)
	}

	restore()
	healed = true

	status, qr, _ = postQuery(t, ts.URL, QueryRequest{
		Workflow: diffWorkflows["rollup"], Collection: "net", RequestID: "replay-1", Limit: diffLimit,
	})
	if status != http.StatusOK || qr.ServedFrom != "" {
		t.Fatalf("healed run: status=%d %+v", status, qr)
	}
	requireIdentical(t, "healed run", qr.Measures, oracle)
	ms := s.History().MeasuredStats()

	status, qr, _ = postQuery(t, ts.URL, QueryRequest{
		Workflow: diffWorkflows["rollup"], Collection: "net", RequestID: "replay-1", Limit: diffLimit,
	})
	if status != http.StatusOK || qr.ServedFrom != "cache" {
		t.Fatalf("replay: status=%d %+v, want a cache hit", status, qr)
	}
	requireIdentical(t, "replay", qr.Measures, oracle)
	if got := s.History().MeasuredStats(); got != ms {
		t.Fatalf("replay hit changed measured statistics: %d -> %d", ms, got)
	}

	// The replayed request ID supersedes its earlier record: history
	// holds ONE record for replay-1, and it is the cache hit.
	var recs int
	for _, r := range s.History().Recent(50) {
		if r.RequestID == "replay-1" {
			recs++
			if r.Outcome != aw.OutcomeCacheHit {
				t.Errorf("replay-1 final outcome = %q, want cache_hit", r.Outcome)
			}
		}
	}
	if recs != 1 {
		t.Fatalf("replay-1 history records = %d, want 1 (idempotent replay)", recs)
	}
}
