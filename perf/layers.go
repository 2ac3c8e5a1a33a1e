package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"awra/aw"
	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/cellmap"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/storage"
	"awra/internal/wfdsl"
)

// The traced pass measures each layer from outside: the harness's own
// clock around calls into the layers' public functions, counts from
// their public snapshots. Nothing here is mixed into the end-to-end
// numbers.

// span is one layer call the harness made. Names follow ROADMAP's
// layer vocabulary (chunk_read, crc_split, scan_drain, key_encode,
// cellmap_probe, agg_update, sort, query, request) so a later
// in-program waterfall can be compared with it span for span.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list; -1 = root
	RunID   string `json:"run_id"`
}

// tracer keeps spans in memory and writes them out at exit. All
// methods are nil-safe no-ops, so the end-to-end pass carries no
// tracing branches of its own.
type tracer struct {
	mu    sync.Mutex
	runID string
	t0    time.Time
	spans []span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// start opens a span and returns its index for end and for children.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent, RunID: t.runID})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// add records an already-finished span.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: s, EndNs: s + d.Nanoseconds(), Parent: parent, RunID: t.runID})
	t.mu.Unlock()
}

// traceparent is a W3C header value for request i of client c, so the
// server's flight trace of a traced request is findable from the span.
func (t *tracer) traceparent(c, i int) string {
	return fmt.Sprintf("00-%016x%016x-%016x-01", uint64(t.t0.UnixNano()), uint64(c)<<32|uint64(i)+1, uint64(i)+1)
}

func (t *tracer) flush(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// lap is one pass over every timed layer call, back to back. The host's
// speed drifts by several percent over tens of seconds, so a layer's
// cost is taken as a difference inside one lap — calls a few seconds
// apart — and the reported lap is the median one of several, never a
// difference of medians taken minutes apart.
type lap struct {
	secs map[string]float64
	// Snapshots of the lap's staircase calls.
	readStats                      scan.ReadStats
	rows                           int64
	cells, grows, probeHWM, arenaB int64
	sortRuns, sortSpillB           int64
	// Per traced query name: Recorder counts and CPU seconds.
	counters, gauges map[string]map[string]int64
	cpu              map[string]float64
}

func newLap() *lap {
	return &lap{secs: map[string]float64{}, cpu: map[string]float64{},
		counters: map[string]map[string]int64{}, gauges: map[string]map[string]int64{}}
}

// once times one call under a span, from a collected heap.
func (l *lap) once(tr *tracer, name, spanName string, parent int, f func() error) error {
	runtime.GC()
	id := tr.start(spanName, parent)
	t0 := time.Now()
	err := f()
	l.secs[name] = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// medianLap returns the lap whose entry `by` is the median (the lower
// middle of an even count).
func medianLap(laps []*lap, by string) *lap {
	s := append([]*lap(nil), laps...)
	sort.Slice(s, func(i, j int) bool { return s[i].secs[by] < s[j].secs[by] })
	return s[(len(s)-1)/2]
}

// stepSink keeps the key-encode step's result alive.
var stepSink uint64

// gran is one basic measure's key recipe, as singlescan builds it.
type gran struct {
	m    *core.Measure
	dIdx []int
	dims []*model.Dimension
	lvls []model.Level
	kb   []byte
	tab  *cellmap.Table
	aggs []agg.Aggregator
}

func grans(c *core.Compiled) []*gran {
	var out []*gran
	for _, m := range c.Measures {
		if m.Kind != core.KindBasic {
			continue
		}
		g := &gran{m: m}
		for d := 0; d < c.Schema.NumDims(); d++ {
			dim := c.Schema.Dim(d)
			if m.Gran[d] == dim.ALL() {
				continue
			}
			g.dIdx = append(g.dIdx, d)
			g.dims = append(g.dims, dim)
			g.lvls = append(g.lvls, m.Gran[d])
		}
		out = append(out, g)
	}
	return out
}

// readRaw is steps 0 and 1: bare chunked ReadFull over the file, and
// with crc set, a row split plus storage.Checksum per row.
func readRaw(path string, crc bool) error {
	f, hdr, err := storage.OpenRaw(path)
	if err != nil {
		return err
	}
	defer f.Close()
	disk, payload := hdr.DiskRowBytes(), hdr.RowBytes()
	buf := make([]byte, scan.DefaultBatchBytes/disk*disk)
	for {
		n, err := io.ReadFull(f, buf)
		if crc {
			for off := 0; off+disk <= n; off += disk {
				row := buf[off : off+disk]
				if hdr.Version >= 2 && storage.Checksum(row[:payload]) != binary.LittleEndian.Uint32(row[payload:]) {
					return fmt.Errorf("checksum mismatch at a row of %s", path)
				}
			}
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// drain is steps 2 to 6: scan.Open + NextBatch to EOF with `level`
// more layers on (0 none, 1 key encode, 2 + cellmap insert, 3 + agg
// update, 4 + finalize: every cell's Final into a result table). It
// returns the reader's stats and leaves table stats in gs.
func drain(path string, c *core.Compiled, gs []*gran, level int) (scan.ReadStats, error) {
	r, err := scan.Open(path, scan.Options{})
	if err != nil {
		return scan.ReadStats{}, err
	}
	defer r.Close()
	numDims := c.Schema.NumDims()
	dimsBuf := make([]int64, numDims)
	msBuf := make([]float64, c.Schema.NumMeasures())
	for _, g := range gs {
		g.tab, g.aggs = cellmap.New(8*len(g.dIdx)), nil
	}
	var sink uint64
	for {
		batch, err := r.NextBatch()
		if err != nil {
			return scan.ReadStats{}, err
		}
		if batch == nil {
			break
		}
		if level == 0 {
			continue
		}
		for _, row := range batch {
			for _, g := range gs {
				if g.m.Filter != nil {
					row.DecodeInto(dimsBuf, msBuf)
					if !g.m.Filter.Eval(dimsBuf, msBuf) {
						continue
					}
				}
				kb := g.kb[:0]
				for j, d := range g.dIdx {
					kb = model.AppendKeyCode(kb, g.dims[j].Up(0, g.lvls[j], row.Dim(d)))
				}
				g.kb = kb
				if level == 1 {
					if len(kb) > 0 {
						sink += uint64(kb[len(kb)-1])
					}
					continue
				}
				idx, created := g.tab.Insert(kb)
				if level == 2 {
					continue
				}
				if created {
					g.aggs = append(g.aggs, g.m.Agg.New())
				}
				if g.m.FactMeasure >= 0 {
					g.aggs[idx].Update(row.Measure(numDims, g.m.FactMeasure))
				} else {
					g.aggs[idx].Update(0)
				}
			}
		}
	}
	if level >= 4 {
		for _, g := range gs {
			t := core.NewTable(c.Schema, g.m.Gran)
			t.Rows = make(map[model.Key]float64, g.tab.Len())
			for i := 0; i < g.tab.Len(); i++ {
				t.Rows[model.Key(g.tab.KeyAt(int32(i)))] = g.aggs[i].Final()
			}
			sink += uint64(len(t.Rows))
		}
	}
	stepSink += sink
	return r.ReadStats(), nil
}

// stairSteps are the staircase's cumulative steps in order: each
// re-reads the fact file with one more layer switched on, replicating
// singlescan's loop with only the layers' public functions. They are
// also the span names, ROADMAP's layer vocabulary.
var stairSteps = []string{"chunk_read", "crc_split", "scan_drain", "key_encode", "cellmap_probe", "agg_update", "finalize"}

// staircase runs every step once into the lap, then the sort alone on
// the same file and key. Cumulative times are a running maximum, so a
// layer's cost (the difference between consecutive steps) is never
// negative and the steps are monotone.
func (l *lap) staircase(tr *tracer, work, path string, c *core.Compiled, key model.SortKey) error {
	root := tr.start("staircase", -1)
	defer tr.end(root)
	gs := grans(c)
	prev := 0.0
	for i, name := range stairSteps {
		err := l.once(tr, name, name, root, func() error {
			if i < 2 {
				return readRaw(path, i == 1)
			}
			rs, err := drain(path, c, gs, i-2)
			l.readStats, l.rows = rs, rs.Records
			return err
		})
		if err != nil {
			return err
		}
		if l.secs[name] < prev {
			l.secs[name] = prev
		}
		prev = l.secs[name]
		if name == "cellmap_probe" {
			for _, g := range gs {
				ts := g.tab.Stats()
				l.cells += ts.Entries
				l.grows += ts.Grows
				l.arenaB += ts.ArenaBytesHWM
				if ts.ProbeHWM > l.probeHWM {
					l.probeHWM = ts.ProbeHWM
				}
			}
		}
	}
	out := filepath.Join(work, "sorted-alone.rec")
	defer os.Remove(out)
	return l.once(tr, "sort", "sort", root, func() error {
		rec := aw.NewRecorder()
		stats, err := scan.SortFileByKey(path, out, c.Schema, key, scan.SortOptions{TempDir: work, Recorder: rec})
		l.sortRuns, l.sortSpillB = int64(stats.Runs), rec.Snapshot().Counters["spill_bytes"]
		return err
	})
}

// emitStaircase writes the staircase's layer metrics from one lap.
func (l *lap) emitStaircase(ms *metricSet) {
	t := l.secs
	perRow := func(a, b string) float64 { return (t[a] - t[b]) * 1e9 / float64(l.rows) }
	ms.set("storage.read_s", t["chunk_read"])
	ms.set("storage.crc_s", t["crc_split"]-t["chunk_read"])
	ms.set("storage.ceiling_s", t["crc_split"])
	ms.set("scan.split_s", t["scan_drain"]-t["crc_split"])
	ms.set("scan.chunks", float64(l.readStats.Chunks))
	ms.set("scan.bytes", float64(l.readStats.BytesRead))
	ms.set("scan.batch_fill_permille", float64(l.readStats.FillPermille))
	ms.set("model.keyenc_ns_row", perRow("key_encode", "scan_drain"))
	ms.set("cellmap.insert_ns_row", perRow("cellmap_probe", "key_encode"))
	ms.set("cellmap.cells", float64(l.cells))
	ms.set("cellmap.grows", float64(l.grows))
	ms.set("cellmap.probe_hwm", float64(l.probeHWM))
	ms.set("cellmap.arena_b", float64(l.arenaB))
	ms.set("agg.update_ns_row", perRow("agg_update", "cellmap_probe"))
	ms.set("core.finalize_s", t["finalize"]-t["agg_update"])
	ms.set("scan.sort_s", t["sort"])
	ms.set("scan.sort_runs", float64(l.sortRuns))
	ms.set("scan.sort_spill_b", float64(l.sortSpillB))
}

// frontEnd times the planning front end on workflow texts — parse,
// compile + fingerprint, and the Section 6 chooser — as the median
// text's median call, in microseconds.
func frontEnd(texts []string, ms *metricSet) (parseUs, compileUs, chooseUs float64, err error) {
	const calls = 5
	var ps, cs, hs []float64
	for _, text := range texts {
		var p *wfdsl.Parsed
		var pd, cd, hd []float64
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			if p, err = wfdsl.Parse(text); err != nil {
				return
			}
			pd = append(pd, us(time.Since(t0)))
			t0 = time.Now()
			var c *core.Compiled
			if c, err = p.Workflow.Compile(); err != nil {
				return
			}
			_ = c.Fingerprint()
			cd = append(cd, us(time.Since(t0)))
			t0 = time.Now()
			if _, err = opt.Choose(c, &plan.Stats{}, 64<<20); err != nil {
				return
			}
			hd = append(hd, us(time.Since(t0)))
		}
		ps, cs, hs = append(ps, median(pd)), append(cs, median(cd)), append(hs, median(hd))
	}
	parseUs, compileUs, chooseUs = median(ps), median(cs), median(hs)
	// wfdsl.Parse compiles too; report parsing alone.
	parseUs -= compileUs
	if parseUs < 0 {
		parseUs = 0
	}
	ms.set("wfdsl.parse_us", parseUs)
	ms.set("core.compile_us", compileUs)
	ms.set("plan.choose_us", chooseUs)
	return
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// query times one aw.RunCompiled into the lap under `name`. With
// traced set it attaches a Recorder and keeps its counts and the CPU
// time the call took.
func (l *lap) query(tr *tracer, name string, traced bool, c *core.Compiled, fact string, o aw.QueryOptions, check func(aw.Results)) error {
	return l.once(tr, name, "query", -1, func() error {
		var rec *aw.Recorder
		if traced {
			rec = aw.NewRecorder()
			o.Recorder = rec
		}
		c0 := cpuSeconds()
		got, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), o)
		l.cpu[name] = cpuSeconds() - c0
		if traced {
			snap := rec.Snapshot()
			l.counters[name], l.gauges[name] = snap.Counters, snap.Gauges
		}
		if err == nil && check != nil {
			check(got)
		}
		return err
	})
}

// batchLayers is the traced pass of a batch workload: traceReps laps,
// each the staircase, the sort alone, and one traced run per batch
// engine, then the workload's own engine bare and with a history log.
// Every metric comes from the lap whose own-engine run is the median.
func batchLayers(w workload, cfg runConfig, work string, st *batchSetup, own aw.QueryOptions, ms *metricSet, tr *tracer, res *result) error {
	c := st.parsed.Compiled
	basics, err := wfdsl.Parse(q1BasicsText)
	if err != nil {
		return err
	}
	hist, err := aw.OpenHistory(filepath.Join(work, "history"))
	if err != nil {
		return err
	}
	defer hist.Close()
	withHist := own
	withHist.History = hist
	check := func(got aw.Results) {
		res.Attempted++
		if digest(got) != st.ref {
			res.Failed++
		}
	}
	var (
		laps []*lap
		mem  = map[*lap][2]runtime.MemStats{}
	)
	for r := 0; r < cfg.sz.traceReps; r++ {
		l := newLap()
		laps = append(laps, l)
		if err := l.staircase(tr, work, st.fact, c, model.SortKey(q1SortKey)); err != nil {
			return err
		}
		// One traced run per batch engine: singlescan and sortscan close
		// their staircases, sortscan over shardscan is the speedup, and
		// the workload's own gives the Recorder counts.
		for _, e := range batchEngines {
			o, err := batchOpts(e.name, e.workers, work)
			if err != nil {
				return err
			}
			if err := l.query(tr, e.name, true, c, st.fact, o, check); err != nil {
				return err
			}
		}
		// Singlescan on the basic measures alone: what the full query
		// adds is the composite phase (rollups and the combine); what
		// this run has over the staircase is per-row bookkeeping.
		so, err := batchOpts("singlescan", 0, work)
		if err != nil {
			return err
		}
		if err := l.query(tr, "basics", true, basics.Compiled, st.fact, so, nil); err != nil {
			return err
		}
		// The own engine without a Recorder, between memory snapshots:
		// tracing overhead and the Go runtime's share. Then with a
		// history log attached.
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := l.query(tr, "plain", false, c, st.fact, own, check); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		mem[l] = [2]runtime.MemStats{m0, m1}
		if err := l.query(tr, "history", false, c, st.fact, withHist, check); err != nil {
			return err
		}
	}
	l := medianLap(laps, w.engine)
	t := l.secs
	res.detail.Samples = len(laps)
	l.emitStaircase(ms)
	if _, _, _, err := frontEnd([]string{q1Text}, ms); err != nil {
		return err
	}
	counters := l.counters[w.engine]
	for metricName, counter := range map[string]string{
		"engine.records_scanned":    "records_scanned",
		"engine.fact_scans":         "fact_scans",
		"engine.cells_created":      "cells_created",
		"engine.flush_batches":      "flush_batches",
		"engine.watermark_advances": "watermark_advances",
		"engine.sort_runs":          "sort_runs",
		"engine.spill_b":            "spill_bytes",
	} {
		ms.set(metricName, float64(counters[counter]))
	}
	ms.set("engine.live_cells_hwm", float64(l.gauges[w.engine]["live_cells_hwm"]))
	ms.set("singlescan.composite_s", t["singlescan"]-t["basics"])
	ms.set("singlescan.residual_s", t["basics"]-t["finalize"])
	ms.set("sortscan.scanphase_s", t["sortscan"]-t["sort"])
	ms.set("engine.roofline_frac", t["crc_split"]/t[w.engine])
	ms.set("parallel.cpu_s", l.cpu["shardscan"])
	ms.set("parallel.cpu_ratio", l.cpu["shardscan"]/t["shardscan"])
	ms.set("parallel.shard_skew", float64(l.gauges["shardscan"]["shard_skew_ratio"])/1000)
	if workers := 2; runtime.GOMAXPROCS(0) >= workers {
		ms.set("parallel.speedup", t["sortscan"]/t["shardscan"])
	} else {
		ms.notApplicable(fmt.Sprintf("GOMAXPROCS=%d < %d workers: a speedup measured on fewer cores than workers is not a result", runtime.GOMAXPROCS(0), workers), "parallel.speedup")
	}
	m0, m1 := mem[l][0], mem[l][1]
	ms.set("trace.overhead_frac", t[w.engine]/t["plain"]-1)
	ms.set("go.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs))
	// once forces one collection before the call; it is the harness's.
	ms.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC)-1)
	ms.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	ms.set("batch.query_s", t["plain"])
	ms.set("batch.rows_per_s", float64(st.rows)/t["plain"])
	ms.set("batch.alloc_b_per_row", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(st.rows))
	ms.set("engine.run_ms", 1000*t["plain"])
	ms.set("qlog.history_ms", 1000*(t["history"]-t["plain"]))
	return nil
}

// serveLayers is the traced pass of a serve workload: the window's
// samples split by the envelope, /metrics deltas, and the same requests
// replayed as direct aw.RunCompiled calls to price the engine and the
// history log without HTTP.
func serveLayers(w workload, cfg runConfig, st *serveSetup, seq []int, okS []sample, before, after map[string]float64, ms *metricSet, tr *tracer) error {
	root := tr.start("window", -1)
	for _, s := range okS {
		if s.traced {
			tr.add("request", root, s.start, s.lat)
		}
	}
	tr.end(root)

	is := func(from string) func(sample) bool { return func(s sample) bool { return s.servedFrom == from } }
	all := latsMs(okS, nil)
	ms.set("serve.lat_p95_ms", quantile(all, 0.95))
	if len(all) >= 1000 {
		ms.set("serve.lat_p99_ms", quantile(all, 0.99))
	} else {
		ms.notApplicable(fmt.Sprintf("p99 needs 1000 samples, the window has %d", len(all)), "serve.lat_p99_ms")
	}
	if hits := latsMs(okS, is("cache")); len(hits) > 0 {
		ms.set("serve.hit_lat_p50_ms", quantile(hits, 0.5))
	}
	if misses := latsMs(okS, is("")); len(misses) > 0 {
		ms.set("serve.miss_lat_p50_ms", quantile(misses, 0.5))
	}
	var server, edge, size []float64
	for _, s := range okS {
		sv := float64(s.serverUs) / 1e3
		server = append(server, sv)
		edge = append(edge, float64(s.lat.Nanoseconds())/1e6-sv)
		size = append(size, float64(len(s.body)))
	}
	serverP50 := quantile(server, 0.5)
	ms.set("serve.server_ms_p50", serverP50)
	ms.set("serve.edge_ms", quantile(edge, 0.5))
	ms.set("serve.resp_b", mean(size))
	traced := latsMs(okS, func(s sample) bool { return s.traced })
	plain := latsMs(okS, func(s sample) bool { return !s.traced })
	if len(traced) > 0 && len(plain) > 0 {
		ms.set("trace.overhead_frac", quantile(traced, 0.5)/quantile(plain, 0.5)-1)
	}

	delta := func(name string) float64 { return after["awra_"+name] - before["awra_"+name] }
	hits, misses := delta("serve_cache_hits"), delta("serve_cache_misses")
	ms.set("serve.cache_hits", hits)
	ms.set("serve.cache_misses", misses)
	ms.set("serve.cache_evictions", delta("serve_cache_evictions"))
	ms.set("serve.cache_invalidations", delta("serve_cache_invalidations"))
	if hits+misses > 0 {
		ms.set("serve.cache_hit_ratio", hits/(hits+misses))
	} else {
		ms.notApplicable("the result cache is off", "serve.cache_hit_ratio")
	}
	ms.set("serve.admission_wait_us", delta("serve_admission_wait_us_sum"))
	ms.set("serve.queued", delta("serve_queued"))
	ms.set("serve.shed", delta("serve_shed"))
	ms.set("serve.retries", delta("serve_retries"))
	ms.set("engine.records_scanned", delta("records_scanned"))
	ms.set("engine.fact_scans", delta("fact_scans"))
	ms.set("engine.cells_created", delta("cells_created"))

	parseUs, compileUs, chooseUs, err := frontEnd(st.texts, ms)
	if err != nil {
		return err
	}

	// Replay the head of client 0's sequence without HTTP, on state 0,
	// each text under the engine the server resolved for it (history-fed
	// statistics move the auto decision, so a bare auto run would price
	// another plan): once bare, once with a history log attached.
	engines := map[int]aw.Engine{}
	for _, s := range okS {
		if e, err := aw.ParseEngine(s.engine); err == nil && s.servedFrom == "" {
			engines[s.text] = e
		}
	}
	const replay = 32
	hist, err := aw.OpenHistory(filepath.Join(st.dir, "replay-history"))
	if err != nil {
		return err
	}
	defer hist.Close()
	var bare, logged []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < replay; i++ {
		p := st.parsed[seq[i]]
		e, ok := engines[seq[i]]
		if !ok {
			continue // the window never executed this text
		}
		o := aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: e, MemoryBudget: 64 << 20}, TempDir: st.dir}
		oh := o
		oh.History = hist
		for _, run := range []struct {
			o   aw.QueryOptions
			out *[]float64
		}{{o, &bare}, {oh, &logged}} {
			id := tr.start("query", -1)
			t0 := time.Now()
			_, err := aw.RunCompiled(context.Background(), p.Compiled, aw.FromFile(st.files[0]), run.o)
			*run.out = append(*run.out, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	runMs, histMs := median(bare), median(logged)-median(bare)
	ms.set("engine.run_ms", runMs)
	ms.set("qlog.history_ms", histMs)
	// Only executed requests have an engine share to subtract, so the
	// unattributed remainder is taken on their server time.
	var executed []float64
	for _, s := range okS {
		if s.servedFrom == "" {
			executed = append(executed, float64(s.serverUs)/1e3)
		}
	}
	ms.set("serve.unattributed_ms", quantile(executed, 0.5)-runMs-histMs-(parseUs+compileUs+chooseUs)/1e3)
	ms.set("go.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(len(bare)+len(logged)))
	ms.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
	ms.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	// The staircase and the sort, on the collection and the first text.
	c := st.parsed[0].Compiled
	key, _, err := aw.BestSortKey(c, nil)
	if err != nil {
		return err
	}
	var laps []*lap
	for r := 0; r < cfg.sz.traceReps; r++ {
		l := newLap()
		laps = append(laps, l)
		if err := l.staircase(tr, st.dir, st.files[0], c, model.SortKey(key)); err != nil {
			return err
		}
	}
	l := medianLap(laps, "finalize")
	l.emitStaircase(ms)
	ms.set("engine.roofline_frac", l.secs["crc_split"]/(runMs/1e3))
	return nil
}
