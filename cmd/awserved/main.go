// Command awserved runs the always-on query service of internal/serve:
// an HTTP/JSON front end answering workflow queries (the internal/wfdsl
// text form) over registered fact-file collections, with admission
// control, overload degradation, and a graceful SIGTERM drain.
//
// Usage:
//
//	awserved -collection net=net.rec [-collection web=web.rec] \
//	    [-addr :8080] [-history ./hist] [-max-concurrent 8] ...
//
// Query with:
//
//	curl -s localhost:8080/query -d '{
//	  "workflow": "schema net\nbasic Count gran(t=Hour, U=IP) agg=count",
//	  "collection": "net"
//	}'
//
// Operational endpoints: /healthz (liveness), /readyz (flips to 503
// while draining), /metrics (Prometheus), /debug/aw/queries (in-flight
// registry), /debug/aw/history (recent runs), /debug/aw/traces (the
// query flight recorder; /debug/aw/traces/{trace_id} for one full
// trace), /debug/aw/slow (the slow-query log), and /debug/aw/cache
// (the result cache: entries, hit/miss/eviction counts).
//
// Identical queries over an unchanged collection are answered from the
// result cache (served_from=cache in the response) without occupying
// an admission slot.
//
// Every query response carries a trace_id (a caller-supplied W3C
// traceparent header is honored and echoed) keying its entry in the
// flight recorder; pinned traces (errors, budget trips, reused trace
// IDs, slow queries) persist in the history directory across restarts.
//
// On SIGTERM or SIGINT the server stops admitting, lets in-flight
// queries finish under -drain-timeout, cancels stragglers, flushes the
// history log, and exits 0; any other failure exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"awra/aw"
	"awra/internal/exec/scan"
	"awra/internal/serve"
)

// collections collects repeated -collection name=path flags.
type collections map[string]string

func (c collections) String() string {
	parts := make([]string, 0, len(c))
	for k, v := range c {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (c collections) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if _, dup := c[name]; dup {
		return fmt.Errorf("collection %q registered twice", name)
	}
	c[name] = path
	return nil
}

func main() {
	cols := collections{}
	flag.Var(cols, "collection", "register a collection as name=path (repeatable, required)")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		histDir  = flag.String("history", "", "persistent query-history directory (one record per request ID: resending an ID supersedes its earlier record; plans reuse measured stats)")
		tempDir  = flag.String("tempdir", "", "directory for sort runs and spills (default: system temp); those of exited processes are removed at start")
		engine   = flag.String("engine", "auto", "default engine for queries that name none: auto, sortscan, shardscan, singlescan, multipass, relational")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-query execution timeout (0 = none; requests may shorten it, never extend)")
		maxConc  = flag.Int("max-concurrent", 8, "queries executing at once (admission slots)")
		tenantLm = flag.Int("tenant-limit", 0, "concurrent queries per tenant (0 = no per-tenant cap)")
		queueD   = flag.Int("queue-depth", 16, "requests allowed to wait for a slot (0 = shed immediately when saturated)")
		queueW   = flag.Duration("queue-wait", time.Second, "how long a queued request waits before it is shed")
		memBud   = flag.Int64("mem-budget", 64<<20, "EngineAuto planning budget in bytes (the Section 6 sort-vs-multipass decision)")
		par      = flag.Int("parallelism", 1, "shard count of shardscan (and of auto, when the workflow shards)")
		maxCell  = flag.Int64("max-live-cells", 0, "per-query cap on simultaneously live aggregation cells (0 = unlimited)")
		maxRows  = flag.Int64("max-result-rows", 0, "per-query cap on result rows (0 = unlimited)")
		maxSpill = flag.Int64("max-spill-bytes", 0, "per-query cap on bytes spilled to disk (0 = unlimited)")
		skipBad  = flag.Bool("skip-corrupt", false, "degraded reads: skip and count checksum-failing rows instead of failing")
		noCache  = flag.Bool("no-cache", false, "disable the result cache (every query executes)")
		cacheByt = flag.Int64("cache-max-bytes", 64<<20, "result-cache byte budget (LRU eviction past it)")
		cacheEnt = flag.Int("cache-max-entries", 256, "result-cache entry cap")
		highP95  = flag.Duration("overload-p95", 0, "tighten budgets when recent p95 latency exceeds this (0 = latency trigger off)")
		highCell = flag.Int64("overload-live-cells", 0, "tighten budgets when a query's live-cell high-water mark exceeds this (0 = memory trigger off)")
		drainTO  = flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight queries before canceling them")
	)
	flag.Parse()

	if len(cols) == 0 {
		fmt.Fprintln(os.Stderr, "awserved: at least one -collection name=path is required")
		flag.Usage()
		os.Exit(2)
	}
	eng, err := aw.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "awserved: %v\n", err)
		os.Exit(2)
	}
	for name, path := range cols {
		if _, err := os.Stat(path); err != nil {
			fmt.Fprintf(os.Stderr, "awserved: collection %s: %v\n", name, err)
			os.Exit(2)
		}
	}

	// A crashed run leaves its sort runs and spills behind; nothing else
	// removes them.
	if n, err := scan.SweepTemp(*tempDir); err != nil {
		log.Printf("awserved: sweeping stale temporary files: %v", err)
	} else if n > 0 {
		log.Printf("awserved: removed %d stale temporary files", n)
	}

	s, err := serve.New(serve.Config{
		Collections: cols,
		HistoryDir:  *histDir,
		TempDir:     *tempDir,
		Gate: serve.GateConfig{
			MaxConcurrent: *maxConc,
			TenantLimit:   *tenantLm,
			QueueDepth:    *queueD,
			QueueWait:     *queueW,
		},
		Overload: serve.OverloadConfig{
			HighP95:       *highP95,
			HighLiveCells: *highCell,
		},
		DefaultTimeout:  *timeout,
		DefaultEngine:   eng,
		MaxLiveCells:    *maxCell,
		MaxResultRows:   *maxRows,
		MaxSpillBytes:   *maxSpill,
		MemoryBudget:    *memBud,
		Parallelism:     *par,
		SkipCorruptRows: *skipBad,
		Cache: serve.CacheConfig{
			Disabled:   *noCache,
			MaxBytes:   *cacheByt,
			MaxEntries: *cacheEnt,
		},
		DrainTimeout: *drainTO,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "awserved: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	log.Printf("awserved: serving %d collection(s) on %s (slots=%d queue=%d engine=%s)",
		len(cols), *addr, *maxConc, *queueD, *engine)
	if err := s.ListenAndServe(ctx, *addr); err != nil {
		log.Printf("awserved: %v", err)
		os.Exit(1)
	}
	log.Printf("awserved: drained clean")
}
