package main

import (
	"fmt"
	"math"
	"strings"

	"awra/aw"
)

// Frozen benchmark constants. They were calibrated once on the host in
// baseline/BENCH_11.json and are never adapted at run time; changing
// any of them starts a new trajectory.
const (
	defaultSeed    = 2006
	defaultSeconds = 10
	clients        = 2 // closed-loop clients, never more than nproc here
	gateSlots      = 4
	states         = 3 // collection file states serve-hot-churn cycles through
)

// sizes are the dataset dimensions; the smoke test swaps in toy ones.
type sizes struct {
	batchRows  int64 // rows of the synthetic cube (44 bytes each)
	oracleRows int64 // prefix compared against core.Eval at eps 0
	netRows    int64 // gen.NetLog -n (planted events add ~10%)
	traceReps  int   // laps of the traced pass; the median lap is reported
	// setupRounds is how many times a run builds its whole set-up
	// (dataset, references, server, warm-up); setup_s is the median
	// round, and the repeats double as warm-up.
	setupRounds int
}

var fullSizes = sizes{batchRows: 200_000, oracleRows: 20_000, netRows: 12_500, traceReps: 3, setupRounds: 3}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// Batch workloads: engine is an aw.ParseEngine name, workers the
	// Parallelism (0 = serial).
	engine  string
	workers int
	// Serve workloads.
	serve        bool
	srvEngine    string // the server's default engine
	cacheOn      bool
	texts        int     // distinct workflow texts in the mix
	zipfS        float64 // popularity exponent (0 = uniform)
	rewriteEvery int     // client 0 replaces the collection after this many of its requests (0 = never)
}

var workloads = []workload{
	{name: "batch-sortscan", engine: "sortscan",
		why: "Q1 (7 child/parent measures) on the 200k-row synthetic cube, sortscan, serial: external sort plus sorted scan dominate; cellmap takes its sorted-append path."},
	{name: "batch-singlescan", engine: "singlescan",
		why: "Same query and file, singlescan, no budget: no sort; per-record key encode, cellmap probe and agg update dominate, so a hot-loop gain shows here and not on batch-sortscan."},
	{name: "batch-parallel", engine: "shardscan", workers: 2,
		why: "Same query and file, shardscan with 2 workers: the multi-core point; split pass, per-shard sort/scan and merge, where a parallel-strategy change must pay off."},
	{name: "serve-cold", serve: true, srvEngine: "auto", texts: 8,
		why: "POST /query, cache off, history on, 13.9k-row net log, 2 closed-loop clients, uniform mix of 8 workflows: the serving edge is the majority; a cache change must not move it."},
	{name: "serve-hot-churn", serve: true, srvEngine: "singlescan", cacheOn: true, texts: 24, zipfS: 1.0, rewriteEvery: 150,
		why: "Cache on (16 entries), singlescan server, 24 workflows drawn Zipf(1.0), client 0 swaps the collection file every 150 requests: hits, evictions, revalidation and invalidation all run."},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// q1Text is the paper's Q1 (bench.Q1Workflow re-stated): seven child
// granularity counts, each rolled up to the parent granularity by
// counting child regions, summed into one measure.
//
// q1BasicsText is its seven basic measures alone — the part of Q1 that
// reads the fact file — which the traced pass runs to split the
// composite phase from the scan.
var q1Text, q1BasicsText = func() (string, string) {
	children := []string{
		"A1=L0, A2=L1", "A1=L0, A3=L1", "A1=L0, A4=L1",
		"A1=L1, A2=L0", "A1=L1, A3=L0", "A1=L1", "A1=L0, A2=L0",
	}
	var basics, rest strings.Builder
	basics.WriteString("schema synth\n")
	var ups []string
	for i, g := range children {
		fmt.Fprintf(&basics, "basic child%d gran(%s) agg=count\n", i+1, g)
		fmt.Fprintf(&rest, "rollup per_parent%d gran(A1=L2) src=child%d agg=count\n", i+1, i+1)
		ups = append(ups, fmt.Sprintf("per_parent%d", i+1))
	}
	fmt.Fprintf(&rest, "combine q1 src=%s fc=sum\n", strings.Join(ups, ","))
	return basics.String() + rest.String(), basics.String()
}()

// q1SortKey is the order sortscan and shardscan run Q1 under (A1 at
// its coarsest concrete level, then A2 base): the key internal/bench's
// hotpath uses, and one shardscan can split on. Both engines get the
// same key so parallel.speedup compares like with like.
var q1SortKey = aw.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 0}}

// serveFamilies are the eight workflow shapes of the serve mix — the
// differential suite's five plus examples/queries/*.aw — each with
// three parameter variants. Text i is family i%8, variant i/8, so the
// first eight texts are the base workflows serve-cold runs.
var serveFamilies = []struct {
	tmpl     string
	variants [3]string
}{
	{"schema net\nbasic Count gran(t=Hour, U=%s) agg=count", [3]string{"IP", "/24", "/16"}},
	{"schema net\nbasic Count gran(t=Hour, U=IP) agg=count\nrollup Busy gran(t=Hour) src=Count agg=count where \"m0 > %s\"", [3]string{"1", "2", "3"}},
	{"schema net\nbasic Count gran(t=Hour, U=IP) agg=count\nrollup Busy gran(t=Hour) src=Count agg=count where \"m0 > %s\"\nrollup Tot gran(t=Hour) src=Count agg=count\ncombine Share src=Busy,Tot fc=ratio", [3]string{"1", "2", "3"}},
	{"schema net\nbasic Count gran(t=Hour) agg=count\nsliding Avg src=Count agg=avg window t %s", [3]string{"-5..0", "-2..0", "-11..0"}},
	{"schema net\nbasic HiPort gran(t=Day, T=/24) agg=count where \"dim P > %s\"", [3]string{"512", "1024", "80"}},
	{"schema net\nbasic traffic gran(t=Hour, T=/24) agg=count\nsliding prev src=traffic agg=sum window t %s\ncombine growth src=traffic,prev fc=ratio", [3]string{"-1..-1", "-2..-2", "-3..-3"}},
	{"schema net\nbasic srcActivity gran(t=Day, T=/24, U=IP) agg=count\nrollup fanIn gran(t=Day, T=/24) src=srcActivity agg=count\nrollup sweeps gran(t=Day) src=fanIn agg=count where \"m0 >= %s\"", [3]string{"40", "20", "10"}},
	{"schema net\nbasic Count gran(t=Hour, U=IP) agg=count\nrollup sCount gran(t=Hour) src=Count agg=count where \"m0 > %[1]s\"\nrollup sTraffic gran(t=Hour) src=Count agg=sum where \"m0 > %[1]s\"\nsliding avgCount src=sCount agg=avg window t 0..5\ncombine ratio src=avgCount,sCount fc=ratio", [3]string{"5", "3", "2"}},
}

func serveText(i int) string {
	f := serveFamilies[i%len(serveFamilies)]
	return fmt.Sprintf(f.tmpl, f.variants[i/len(serveFamilies)])
}

// metricDef names one metric. bound > 0 marks an end-to-end metric:
// the share of the parent's median by which it may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
	// exact marks a count that must repeat exactly for one workload
	// and seed on serial workloads; -compare checks it.
	exact bool
}

// endToEnd are what a user of the system sees; every workload emits
// every one of them. An operation is one aw.Run call on batch-*
// workloads and one POST /query on serve-* workloads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.10},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

// perLayer are single-layer metrics from the traced run. They carry no
// bound. A metric that does not apply to a workload reads 0 there (the
// contract wants every name on every workload); README.md has the
// applicability table.
var perLayer = []metricDef{
	{name: "storage.read_s", unit: "s", better: "lower"},
	{name: "storage.crc_s", unit: "s", better: "lower"},
	{name: "storage.ceiling_s", unit: "s", better: "lower"},
	{name: "scan.split_s", unit: "s", better: "lower"},
	{name: "scan.chunks", unit: "count", better: "lower", exact: true},
	{name: "scan.bytes", unit: "count", better: "lower", exact: true},
	{name: "scan.batch_fill_permille", unit: "count", better: "higher", exact: true},
	{name: "scan.sort_s", unit: "s", better: "lower"},
	{name: "scan.sort_runs", unit: "count", better: "lower", exact: true},
	{name: "scan.sort_spill_b", unit: "count", better: "lower", exact: true},
	{name: "model.keyenc_ns_row", unit: "ns/row", better: "lower"},
	{name: "cellmap.insert_ns_row", unit: "ns/row", better: "lower"},
	{name: "cellmap.cells", unit: "count", better: "lower", exact: true},
	{name: "cellmap.grows", unit: "count", better: "lower", exact: true},
	{name: "cellmap.probe_hwm", unit: "count", better: "lower", exact: true},
	{name: "cellmap.arena_b", unit: "count", better: "lower", exact: true},
	{name: "agg.update_ns_row", unit: "ns/row", better: "lower"},
	{name: "core.finalize_s", unit: "s", better: "lower"},
	{name: "singlescan.composite_s", unit: "s", better: "lower"},
	{name: "singlescan.residual_s", unit: "s", better: "lower"},
	{name: "sortscan.scanphase_s", unit: "s", better: "lower"},
	{name: "engine.roofline_frac", unit: "ratio", better: "higher"},
	{name: "engine.records_scanned", unit: "count", better: "lower", exact: true},
	{name: "engine.fact_scans", unit: "count", better: "lower", exact: true},
	{name: "engine.cells_created", unit: "count", better: "lower", exact: true},
	{name: "engine.flush_batches", unit: "count", better: "lower", exact: true},
	{name: "engine.watermark_advances", unit: "count", better: "lower", exact: true},
	{name: "engine.live_cells_hwm", unit: "count", better: "lower", exact: true},
	{name: "engine.sort_runs", unit: "count", better: "lower", exact: true},
	{name: "engine.spill_b", unit: "count", better: "lower", exact: true},
	{name: "parallel.cpu_s", unit: "s", better: "lower"},
	{name: "parallel.cpu_ratio", unit: "ratio", better: "higher"},
	{name: "parallel.speedup", unit: "ratio", better: "higher"},
	{name: "parallel.shard_skew", unit: "ratio", better: "lower"},
	{name: "go.mallocs_per_op", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "batch.query_s", unit: "s", better: "lower"},
	{name: "batch.rows_per_s", unit: "1/s", better: "higher"},
	{name: "batch.alloc_b_per_row", unit: "B/row", better: "lower"},
	{name: "wfdsl.parse_us", unit: "us", better: "lower"},
	{name: "core.compile_us", unit: "us", better: "lower"},
	{name: "plan.choose_us", unit: "us", better: "lower"},
	{name: "engine.run_ms", unit: "ms", better: "lower"},
	{name: "qlog.history_ms", unit: "ms", better: "lower"},
	{name: "serve.server_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.edge_ms", unit: "ms", better: "lower"},
	{name: "serve.unattributed_ms", unit: "ms", better: "lower"},
	{name: "serve.resp_b", unit: "B", better: "lower"},
	{name: "serve.lat_p95_ms", unit: "ms", better: "lower"},
	{name: "serve.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.hit_lat_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.miss_lat_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.cache_hits", unit: "count", better: "higher"},
	{name: "serve.cache_misses", unit: "count", better: "lower"},
	{name: "serve.cache_evictions", unit: "count", better: "lower"},
	{name: "serve.cache_invalidations", unit: "count", better: "lower"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.admission_wait_us", unit: "us", better: "lower"},
	{name: "serve.queued", unit: "count", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.retries", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "fail_share", unit: "ratio", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against a definition list, so a
// misspelt, repeated or non-finite metric is a harness bug found at
// once and not a silently missing row.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
	// na records why a per-layer metric does not apply; it reads 0.
	na map[string]string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]metric{}, na: map[string]string{}}
}

func (m *metricSet) def(name string) metricDef {
	for _, d := range m.defs {
		if d.name == name {
			return d
		}
	}
	panic("perf: metric " + name + " is not defined for this pass")
}

func (m *metricSet) set(name string, v float64) {
	d := m.def(name)
	if _, dup := m.vals[name]; dup {
		panic("perf: metric " + name + " set twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perf: metric %s is not finite (%v)", name, v))
	}
	m.vals[name] = metric{Value: v, Unit: d.unit}
}

// notApplicable reports a per-layer metric as 0 with the reason.
func (m *metricSet) notApplicable(reason string, names ...string) {
	for _, n := range names {
		m.set(n, 0)
		m.na[n] = reason
	}
}

// finish marks every metric nobody set as not applicable, or fails if
// the pass is the end-to-end one, where every metric applies.
func (m *metricSet) finish(w workload, endToEndPass bool) error {
	for _, d := range m.defs {
		if _, ok := m.vals[d.name]; ok {
			continue
		}
		if endToEndPass {
			return fmt.Errorf("perf: workload %s did not emit %s", w.name, d.name)
		}
		m.notApplicable("does not apply to "+w.name, d.name)
	}
	return nil
}
