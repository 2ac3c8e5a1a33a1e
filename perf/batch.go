package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"awra/aw"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/gen"
	"awra/internal/wfdsl"
)

// batchEngines are the engines the 20k-row oracle check covers, with
// their Parallelism: every batch workload's engine.
var batchEngines = []struct {
	name    string
	workers int
}{{"sortscan", 0}, {"singlescan", 0}, {"shardscan", 2}}

// batchOpts builds the options one batch aw.Run call uses.
func batchOpts(engine string, workers int, tempDir string) (aw.QueryOptions, error) {
	e, err := aw.ParseEngine(engine)
	if err != nil {
		return aw.QueryOptions{}, err
	}
	o := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: e, Parallelism: workers},
		TempDir:     tempDir,
	}
	if e != aw.EngineSingleScan {
		o.SortKey = q1SortKey
	}
	return o, nil
}

// digest folds a result set into one order-independent number: the sum
// over every (measure, region key, value bits) row of an FNV-1a hash.
// Equal tables give equal digests whatever order the maps iterate in;
// it allocates nothing, so it can run inside the allocation window.
func digest(res aw.Results) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var sum uint64
	for name, t := range res {
		nh := uint64(offset)
		for i := 0; i < len(name); i++ {
			nh = (nh ^ uint64(name[i])) * prime
		}
		if t == nil {
			sum += nh
			continue
		}
		sum += nh * uint64(len(t.Rows)+1)
		for k, v := range t.Rows {
			h := nh
			for i := 0; i < len(k); i++ {
				h = (h ^ uint64(k[i])) * prime
			}
			bits := math.Float64bits(v)
			if v != v {
				bits = 0x7ff8000000000001 // every NULL hashes alike
			}
			for s := 0; s < 64; s += 8 {
				h = (h ^ (bits >> s & 0xff)) * prime
			}
			sum += h
		}
	}
	return sum
}

// evalOracle computes every output measure of a compiled workflow with
// the algebraic reference evaluator over in-memory records.
func evalOracle(c *core.Compiled, recs []aw.Record) (aw.Results, error) {
	want := aw.Results{}
	for _, name := range c.Outputs() {
		e, err := core.Translate(c, name)
		if err != nil {
			return nil, err
		}
		t, err := core.Eval(e, recs)
		if err != nil {
			return nil, err
		}
		want[name] = t
	}
	return want, nil
}

// oracleMismatches counts the output measures whose engine table is
// not bit-identical (eps 0) to the reference evaluator's.
func oracleMismatches(want, got aw.Results) int {
	bad := 0
	for name, t := range want {
		g, ok := got[name]
		if !ok || g == nil || !t.Equal(g, 0) {
			bad++
		}
	}
	return bad
}

// readRecords decodes a whole record file through the batched reader.
func readRecords(path string) ([]aw.Record, error) {
	r, err := scan.Open(path, scan.Options{})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	hdr := r.Header()
	var recs []aw.Record
	for {
		batch, err := r.NextBatch()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return recs, nil
		}
		for _, row := range batch {
			rec := aw.Record{Dims: make([]int64, hdr.NumDims), Ms: make([]float64, hdr.NumMeasures)}
			row.DecodeInto(rec.Dims, rec.Ms)
			recs = append(recs, rec)
		}
	}
}

// batchSetup is what one set-up round leaves behind.
type batchSetup struct {
	fact   string
	rows   int64
	parsed *wfdsl.Parsed
	ref    uint64 // digest of the reference engine's full-size result
	// checks and failed count the verifications the round made.
	checks, failed int
}

// setupBatch is one full set-up round: generate the cube and its
// prefix from the seed, check every batch engine against core.Eval on
// the prefix, take the full-size reference digest from sortscan, and
// warm the workload's own engine up against it.
func setupBatch(w workload, cfg runConfig, work string) (*batchSetup, error) {
	ctx := context.Background()
	s := &batchSetup{fact: filepath.Join(work, "cube.rec"), rows: cfg.sz.batchRows}
	prefix := filepath.Join(work, "prefix.rec")
	sc := gen.SynthConfig{Seed: cfg.seed}
	if _, err := gen.Synth(s.fact, s.rows, sc); err != nil {
		return nil, err
	}
	// The generator draws records in sequence, so the same seed with a
	// smaller n is exactly the prefix of the big file.
	if _, err := gen.Synth(prefix, cfg.sz.oracleRows, sc); err != nil {
		return nil, err
	}
	var err error
	if s.parsed, err = wfdsl.Parse(q1Text); err != nil {
		return nil, err
	}
	recs, err := readRecords(prefix)
	if err != nil {
		return nil, err
	}
	want, err := evalOracle(s.parsed.Compiled, recs)
	if err != nil {
		return nil, err
	}
	for _, e := range batchEngines {
		o, err := batchOpts(e.name, e.workers, work)
		if err != nil {
			return nil, err
		}
		got, err := aw.Run(ctx, s.parsed.Workflow, aw.FromFile(prefix), o)
		if err != nil {
			return nil, fmt.Errorf("oracle run %s: %w", e.name, err)
		}
		s.checks++
		if oracleMismatches(want, got) > 0 {
			s.failed++
		}
	}
	ro, err := batchOpts("sortscan", 0, work)
	if err != nil {
		return nil, err
	}
	refRes, err := aw.Run(ctx, s.parsed.Workflow, aw.FromFile(s.fact), ro)
	if err != nil {
		return nil, err
	}
	s.ref = digest(refRes)
	oo, err := batchOpts(w.engine, w.workers, work)
	if err != nil {
		return nil, err
	}
	if w.engine == "sortscan" {
		return s, nil // the reference run was the warm-up
	}
	warm, err := aw.Run(ctx, s.parsed.Workflow, aw.FromFile(s.fact), oo)
	if err != nil {
		return nil, err
	}
	s.checks++
	if digest(warm) != s.ref {
		s.failed++
	}
	return s, nil
}

// runBatch runs one batch workload: set-up rounds, then either the
// timed window (end-to-end pass) or the layer measurements.
func runBatch(w workload, cfg runConfig, work string, ms *metricSet, tr *tracer) (*result, error) {
	var (
		st     *batchSetup
		rounds []float64
		res    = &result{}
	)
	for r := 0; r < cfg.sz.setupRounds; r++ {
		t0 := time.Now()
		s, err := setupBatch(w, cfg, work)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		res.Attempted += s.checks
		res.Failed += s.failed
		st = s
	}
	res.detail.Digest = fmt.Sprintf("%016x", st.ref)
	opts, err := batchOpts(w.engine, w.workers, work)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return res, batchLayers(w, cfg, work, st, opts, ms, tr, res)
	}

	// rep is one repetition from a collected heap (so where the previous
	// one's garbage happens to trigger a cycle is not part of it): its
	// wall time, its peak RSS, and whether the result was right.
	rep := func() (secs, peakMB float64, good bool) {
		runtime.GC()
		resetPeakRSS()
		t0 := time.Now()
		got, err := aw.Run(context.Background(), st.parsed.Workflow, aw.FromFile(st.fact), opts)
		secs = time.Since(t0).Seconds()
		return secs, peakRSSMB(), err == nil && digest(got) == st.ref
	}
	// Give the set-up's memory (oracle and reference runs) back before
	// the window, so peak RSS is the workload's engine's; the first
	// repetition then only brings the heap back and is checked, not timed.
	debug.FreeOSMemory()
	if _, _, good := rep(); !good {
		res.Failed++
	}
	var (
		lats, peaks []float64
		m0, m1      runtime.MemStats
		timed       int
		deadline    = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	)
	runtime.ReadMemStats(&m0)
	for ; timed < 3 || time.Now().Before(deadline); timed++ {
		secs, peak, good := rep()
		if !good {
			res.Failed++
			continue
		}
		lats, peaks = append(lats, secs), append(peaks, peak)
	}
	runtime.ReadMemStats(&m1)
	res.Attempted += 1 + timed
	if len(lats) == 0 {
		return nil, fmt.Errorf("no repetition of %s succeeded", w.name)
	}
	total := 0.0
	for _, l := range lats {
		total += l
	}
	res.detail.Samples = len(lats)
	ms.set("setup_s", median(rounds))
	ms.set("lat_p50_ms", 1000*median(lats))
	ms.set("qps", float64(len(lats))/total)
	ms.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(timed))
	ms.set("peak_rss_mb", median(peaks))
	return res, nil
}
