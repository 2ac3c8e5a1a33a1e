// Result cache: finalized measure tables keyed by what they answer —
// (collection file × compiled-workflow fingerprint) — with LRU +
// byte-budget eviction. The paper's Section 5 contribution is sharing
// one fact-table pass across a workflow's measures; caching the
// finalized tables extends that sharing across *time*: the next
// identical query over an unchanged collection re-uses the pass that
// already happened. Gray et al.'s Data-Cube classification is what
// makes this sound — every cached table is the finalized output of
// distributive/algebraic/holistic aggregation over an immutable input
// snapshot, so as long as the input fingerprint still matches, the
// bytes cannot have changed. That fingerprint is the collection's one
// identity, aw.CollectionFingerprint, which history records and
// measured statistics carry too: an entry holds the value its run read
// before it started, and every Get and Put compares the file's current
// value with it.
package serve

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

// CacheConfig tunes the serve result cache.
type CacheConfig struct {
	// Disabled turns the cache off (every query executes).
	Disabled bool
	// MaxBytes bounds the estimated footprint of cached tables;
	// 0 defaults to 64 MiB. Least-recently-used entries are evicted
	// past it.
	MaxBytes int64
	// MaxEntries bounds the entry count; 0 defaults to 256.
	MaxEntries int
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 256
	}
	return c
}

// cacheKey identifies what a cached entry answers: which collection
// file, which compiled workflow (core fingerprint over output node
// signatures), and the one option that changes answers rather than
// just plans — degraded corrupt-row skipping. Engine, parallelism, and
// budgets are deliberately absent: every engine computes the same
// tables (the cross-engine equivalence suite pins that), so an answer
// computed by one serves them all.
func cacheKey(path, workflowFP string, skipCorrupt bool) string {
	return fmt.Sprintf("%s|%s|skip=%v", path, workflowFP, skipCorrupt)
}

// cacheEntry is one cached result set plus the provenance needed for
// observability and invalidation.
type cacheEntry struct {
	key    string
	path   string
	fileFP string // aw.CollectionFingerprint of the file the result was computed from
	res    aw.Results
	bytes  int64

	// Provenance: the run that computed the tables.
	traceID string
	engine  string
	created time.Time

	hits    int64
	lastHit time.Time
}

// resultCache is the LRU. Cached aw.Results share *Table pointers with
// the responses served from them; tables are read-only once finalized
// (TopK and friends only read), so sharing is safe.
type resultCache struct {
	cfg CacheConfig
	rec *obs.Recorder

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
	bytes int64
}

// newResultCache builds the cache and registers its metrics; returns
// nil when disabled (all methods are nil-safe misses).
func newResultCache(cfg CacheConfig, rec *obs.Recorder) *resultCache {
	if cfg.Disabled {
		return nil
	}
	cfg = cfg.withDefaults()
	c := &resultCache{cfg: cfg, rec: rec, ll: list.New(), byKey: make(map[string]*list.Element)}
	rec.Counter(obs.MServeCacheHits)
	rec.Counter(obs.MServeCacheMisses)
	rec.Counter(obs.MServeCacheEvictions)
	rec.Counter(obs.MServeCacheInvalidations)
	rec.Gauge(obs.GServeCacheEntries)
	rec.Gauge(obs.GServeCacheBytes)
	return c
}

// Get returns the cached entry for key if its collection file still
// fingerprints as it did when the result was computed. A changed (or
// unreadable) file invalidates the entry on the spot — the acknowledged
// invalidation point the concurrency tests pin: once a writer's change
// is visible to aw.CollectionFingerprint, no later Get can return the
// old tables. The file is read without the lock, so a slow probe holds
// up no other key; an entry replaced or removed meanwhile is a plain
// miss.
func (c *resultCache) Get(key, path string) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.byKey[key]
	c.mu.Unlock()
	if !ok {
		c.rec.Counter(obs.MServeCacheMisses).Add(1)
		return nil, false
	}
	// An element's Value is set once, before it is linked, and its
	// fileFP never changes.
	e := el.Value.(*cacheEntry)
	cur, err := aw.CollectionFingerprint(aw.FromFile(path))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey[key] != el {
		c.rec.Counter(obs.MServeCacheMisses).Add(1)
		return nil, false
	}
	if err != nil || cur != e.fileFP {
		c.removeLocked(el)
		c.rec.Counter(obs.MServeCacheInvalidations).Add(1)
		c.rec.Counter(obs.MServeCacheMisses).Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	e.hits++
	e.lastHit = time.Now()
	c.rec.Counter(obs.MServeCacheHits).Add(1)
	return e, true
}

// Put stores a successful run's results — but only if the collection
// file still fingerprints as preFP, the fingerprint the run read before
// it started. A file that changed mid-run would leave the tables
// describing an input that no longer exists; such results are simply
// not cached. Error-path results never reach Put at all.
func (c *resultCache) Put(key, path, preFP string, res aw.Results, traceID, engine string) bool {
	if c == nil || preFP == "" || len(res) == 0 {
		return false
	}
	cur, err := aw.CollectionFingerprint(aw.FromFile(path))
	if err != nil || cur != preFP {
		return false
	}
	e := &cacheEntry{
		key: key, path: path, fileFP: preFP, res: res,
		bytes: estimateResultBytes(res), traceID: traceID, engine: engine,
		created: time.Now(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byKey[key]; ok {
		c.removeLocked(old)
	}
	c.byKey[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	for (c.bytes > c.cfg.MaxBytes || c.ll.Len() > c.cfg.MaxEntries) && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
		c.rec.Counter(obs.MServeCacheEvictions).Add(1)
	}
	c.gaugesLocked()
	return true
}

// removeLocked unlinks one entry and updates gauges.
func (c *resultCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
	c.gaugesLocked()
}

func (c *resultCache) gaugesLocked() {
	c.rec.Gauge(obs.GServeCacheEntries).Set(int64(c.ll.Len()))
	c.rec.Gauge(obs.GServeCacheBytes).Set(c.bytes)
}

// Len returns the current entry count. Nil-safe (0).
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// estimateResultBytes approximates the in-memory footprint of a result
// set: per row, the key bytes plus the float64 value plus map-entry
// overhead, and a fixed per-table charge for codec and headers.
func estimateResultBytes(res aw.Results) int64 {
	var n int64
	for name, t := range res {
		n += int64(len(name)) + 256
		if t == nil {
			continue
		}
		for k := range t.Rows {
			n += int64(len(k)) + 8 + 48
		}
	}
	return n
}

// CacheEntryInfo is one entry in the /debug/aw/cache payload.
type CacheEntryInfo struct {
	Key      string    `json:"key"`
	Path     string    `json:"path"`
	FileFP   string    `json:"file_fp"`
	Bytes    int64     `json:"bytes"`
	Measures int       `json:"measures"`
	Rows     int       `json:"rows"`
	TraceID  string    `json:"trace_id,omitempty"`
	Engine   string    `json:"engine,omitempty"`
	Created  time.Time `json:"created"`
	Hits     int64     `json:"hits"`
	LastHit  time.Time `json:"last_hit,omitempty"`
}

// CacheSnapshot is the /debug/aw/cache payload.
type CacheSnapshot struct {
	Enabled       bool             `json:"enabled"`
	Entries       int              `json:"entries"`
	Bytes         int64            `json:"bytes"`
	MaxBytes      int64            `json:"max_bytes,omitempty"`
	MaxEntries    int              `json:"max_entries,omitempty"`
	Hits          int64            `json:"hits"`
	Misses        int64            `json:"misses"`
	Evictions     int64            `json:"evictions"`
	Invalidations int64            `json:"invalidations"`
	List          []CacheEntryInfo `json:"list,omitempty"`
}

// Snapshot renders the cache state for /debug/aw/cache, entries in
// most-recently-used order. Nil-safe (disabled snapshot).
func (c *resultCache) Snapshot() CacheSnapshot {
	if c == nil {
		return CacheSnapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheSnapshot{
		Enabled:       true,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		MaxBytes:      c.cfg.MaxBytes,
		MaxEntries:    c.cfg.MaxEntries,
		Hits:          c.rec.Counter(obs.MServeCacheHits).Value(),
		Misses:        c.rec.Counter(obs.MServeCacheMisses).Value(),
		Evictions:     c.rec.Counter(obs.MServeCacheEvictions).Value(),
		Invalidations: c.rec.Counter(obs.MServeCacheInvalidations).Value(),
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		info := CacheEntryInfo{
			Key: e.key, Path: e.path, FileFP: e.fileFP, Bytes: e.bytes,
			Measures: len(e.res), TraceID: e.traceID, Engine: e.engine,
			Created: e.created, Hits: e.hits, LastHit: e.lastHit,
		}
		for _, t := range e.res {
			if t != nil {
				info.Rows += len(t.Rows)
			}
		}
		s.List = append(s.List, info)
	}
	return s
}
