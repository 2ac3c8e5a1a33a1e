package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/core"
	"awra/internal/model"
	"awra/internal/obs"
)

func writeTempFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func fakeResults(rows int) aw.Results {
	tbl := &core.Table{Rows: make(map[model.Key]float64, rows)}
	for i := 0; i < rows; i++ {
		tbl.Rows[model.Key(string(rune('a'+i%26))+string(rune('0'+i/26)))] = float64(i)
	}
	return aw.Results{"m": tbl}
}

func TestCacheHitMissAndFingerprintInvalidation(t *testing.T) {
	rec := obs.New()
	c := newResultCache(CacheConfig{}, rec)
	p := writeTempFile(t, "facts.rec", []byte("row1\nrow2\n"))
	fp, err := aw.CollectionFingerprint(aw.FromFile(p))
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(p, "wf1", false)

	if _, ok := c.Get(key, p); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Put(key, p, fp, fakeResults(3), "trace-1", "sortscan") {
		t.Fatal("Put refused with unchanged file")
	}
	e, ok := c.Get(key, p)
	if !ok {
		t.Fatal("expected hit after Put")
	}
	if e.traceID != "trace-1" || e.engine != "sortscan" {
		t.Fatalf("provenance lost: %+v", e)
	}

	// Append to the file: size changes, entry must be invalidated even
	// though the key is unchanged.
	f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("row3\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := c.Get(key, p); ok {
		t.Fatal("stale hit served after file change")
	}
	if got := rec.Counter(obs.MServeCacheInvalidations).Value(); got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
}

func TestCacheDetectsEqualLengthRewrite(t *testing.T) {
	// Same size, same mtime: only the content probe can catch it.
	rec := obs.New()
	c := newResultCache(CacheConfig{}, rec)
	p := writeTempFile(t, "facts.rec", []byte("AAAAAAAA"))
	fp, err := aw.CollectionFingerprint(aw.FromFile(p))
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(p, "wf1", false)
	if !c.Put(key, p, fp, fakeResults(1), "t", "e") {
		t.Fatal("Put refused")
	}
	st, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("BBBBBBBB"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(p, time.Now(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key, p); ok {
		t.Fatal("stale hit served after equal-length rewrite with preserved mtime")
	}
}

func TestCachePutRefusesMidRunChange(t *testing.T) {
	rec := obs.New()
	c := newResultCache(CacheConfig{}, rec)
	p := writeTempFile(t, "facts.rec", []byte("before\n"))
	fp, err := aw.CollectionFingerprint(aw.FromFile(p))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a mid-run change: fingerprint taken, then file grows
	// before the run finishes and tries to populate.
	if err := os.WriteFile(p, []byte("before\nand-after\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := cacheKey(p, "wf1", false)
	if c.Put(key, p, fp, fakeResults(1), "t", "e") {
		t.Fatal("Put accepted results computed from a superseded file state")
	}
	if c.Len() != 0 {
		t.Fatalf("cache has %d entries, want 0", c.Len())
	}
}

func TestCacheLRUEvictionByEntriesAndBytes(t *testing.T) {
	rec := obs.New()
	c := newResultCache(CacheConfig{MaxEntries: 2, MaxBytes: 1 << 20}, rec)
	p := writeTempFile(t, "facts.rec", []byte("data\n"))
	fp, err := aw.CollectionFingerprint(aw.FromFile(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range []string{"wf1", "wf2"} {
		if !c.Put(cacheKey(p, wf, false), p, fp, fakeResults(2), "t", "e") {
			t.Fatalf("Put %s refused", wf)
		}
	}
	// Touch wf1 so wf2 is the LRU victim when wf3 arrives.
	if _, ok := c.Get(cacheKey(p, "wf1", false), p); !ok {
		t.Fatal("wf1 should hit")
	}
	if !c.Put(cacheKey(p, "wf3", false), p, fp, fakeResults(2), "t", "e") {
		t.Fatal("Put wf3 refused")
	}
	if _, ok := c.Get(cacheKey(p, "wf2", false), p); ok {
		t.Fatal("LRU victim wf2 still cached")
	}
	if _, ok := c.Get(cacheKey(p, "wf1", false), p); !ok {
		t.Fatal("recently used wf1 evicted")
	}
	if got := rec.Counter(obs.MServeCacheEvictions).Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// Byte budget: a cache too small for two entries keeps only the newest.
	small := newResultCache(CacheConfig{MaxBytes: 1, MaxEntries: 100}, obs.New())
	small.Put(cacheKey(p, "wf1", false), p, fp, fakeResults(4), "t", "e")
	small.Put(cacheKey(p, "wf2", false), p, fp, fakeResults(4), "t", "e")
	if small.Len() != 1 {
		t.Fatalf("byte-budget cache has %d entries, want 1", small.Len())
	}
	if _, ok := small.Get(cacheKey(p, "wf2", false), p); !ok {
		t.Fatal("newest entry should survive the byte budget")
	}
}

func TestCacheSnapshotAndDisabled(t *testing.T) {
	rec := obs.New()
	c := newResultCache(CacheConfig{}, rec)
	p := writeTempFile(t, "facts.rec", []byte("data\n"))
	fp, _ := aw.CollectionFingerprint(aw.FromFile(p))
	c.Put(cacheKey(p, "wf1", false), p, fp, fakeResults(3), "trace-9", "auto")
	c.Get(cacheKey(p, "wf1", false), p)
	s := c.Snapshot()
	if !s.Enabled || s.Entries != 1 || s.Hits != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.List) != 1 || s.List[0].Rows != 3 || s.List[0].TraceID != "trace-9" {
		t.Fatalf("snapshot list = %+v", s.List)
	}

	var off *resultCache // Disabled config yields nil; nil must be inert.
	if off = newResultCache(CacheConfig{Disabled: true}, rec); off != nil {
		t.Fatal("disabled cache should be nil")
	}
	if _, ok := off.Get("k", p); ok {
		t.Fatal("nil cache hit")
	}
	if off.Put("k", p, fp, fakeResults(1), "t", "e") {
		t.Fatal("nil cache accepted Put")
	}
	if s := off.Snapshot(); s.Enabled {
		t.Fatal("nil snapshot enabled")
	}
}

// TestServeOneCollectionIdentity: the cold run's history record, the
// cache entry it filled and the cache hit's history record all name the
// collection by one aw.CollectionFingerprint string.
func TestServeOneCollectionIdentity(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, id := range []string{"cold", "hit"} {
		status, qr, _ := postQuery(t, ts.URL, QueryRequest{Workflow: testWorkflow, Collection: "net", RequestID: id})
		if status != http.StatusOK || (qr.ServedFrom == "cache") != (id == "hit") {
			t.Fatalf("%s: status %d, served_from %q, error %q", id, status, qr.ServedFrom, qr.Error)
		}
	}
	fps := map[string]string{}
	for _, r := range s.History().Recent(10) {
		fps["history "+r.RequestID] = r.CollectionFP
	}
	resp, err := http.Get(ts.URL + "/debug/aw/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap CacheSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.List) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(snap.List))
	}
	fps["cache entry"] = snap.List[0].FileFP
	want, err := aw.CollectionFingerprint(aw.FromFile(s.cfg.Collections["net"]))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"history cold", "history hit", "cache entry"} {
		if fps[name] != want {
			t.Errorf("%s collection fingerprint = %q, want %q", name, fps[name], want)
		}
	}
}
