package sortscan

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"awra/internal/core"
	"awra/internal/exec/cellmap"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// ShardedOptions configures RunSharded.
type ShardedOptions struct {
	// SortKey orders every shard's pass (same key everywhere); its
	// leading part is the shard unit.
	SortKey model.SortKey
	// Shards is the worker count (>= 1; 1 degenerates to Run).
	Shards int
	// TempDir receives shard files and per-shard sort runs.
	TempDir string
	// ChunkRecords tunes the per-shard external sorts.
	ChunkRecords int
	// ReadBatchBytes is the chunk size of the batched fact reads
	// (0 = scan.DefaultBatchBytes).
	ReadBatchBytes int
	// Stats feeds footprint estimation (informational).
	Stats *plan.Stats
	// Recorder, if non-nil, receives a "split" span for the two-pass
	// balanced partitioning, one "shard"-rooted span subtree per worker
	// (sort -> scan -> finalize children), a "combine" span for the
	// concatenate-and-merge phase, and the standard engine metrics plus
	// shards_planned and shard_skew_ratio.
	Recorder *obs.Recorder
	// Guard, if non-nil, enforces cancellation and resource budgets:
	// the live-cell budget is divided evenly across shards, while spill
	// bytes and result rows stay query-global.
	Guard *qguard.Guard
}

// RunSharded evaluates the workflow with partitioned parallelism over
// the sort order itself: the fact file is split into Shards files by
// the leading part of the sort key (each shard owns whole prefix
// groups, balanced greedily by record count), every shard is
// external-sorted and scanned by an independent one-pass engine on its
// own goroutine, and the per-shard outputs combine — concatenation for
// measures whose regions nest inside shard units, aggregator-state
// merge (agg.Merge, e.g. COUNT DISTINCT set union) for measures whose
// regions span them. Requires a shardable workflow; see
// opt.ShardPrefix for the exact condition.
func RunSharded(c *core.Compiled, factPath string, opts ShardedOptions) (*Result, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Shards == 1 {
		return Run(c, factPath, Options{
			SortKey: opts.SortKey, TempDir: opts.TempDir, ChunkRecords: opts.ChunkRecords,
			ReadBatchBytes: opts.ReadBatchBytes,
			Stats:          opts.Stats, Recorder: opts.Recorder, Guard: opts.Guard,
		})
	}
	rec := opts.Recorder
	if rec == nil {
		rec = obs.New()
	}
	pl, err := plan.Build(c, opts.SortKey, opts.Stats)
	if err != nil {
		return nil, err
	}
	sp, err := opt.ShardPrefix(c, pl.SortKey)
	if err != nil {
		return nil, fmt.Errorf("sortscan: %w", err)
	}
	guard := opts.Guard
	shards := opts.Shards
	if opts.TempDir == "" {
		opts.TempDir = os.TempDir()
	}
	rec.Counter(obs.MShardsPlanned).Add(int64(shards))

	// Split: a counting pass sizes every shard unit, a greedy
	// longest-processing-time assignment balances units across shards,
	// and a second pass writes the shard files. Two fact-file reads buy
	// balance that plain unit hashing cannot give when the outermost
	// level has few distinct values.
	splitSpan := rec.Start(obs.SpanSplit)
	assign, total, err := shardAssignment(c, factPath, sp, shards, guard)
	if err != nil {
		return nil, err
	}
	paths, counts, err := storage.ShardFile(factPath, shards, assign, storage.ShardOptions{
		TempDir: opts.TempDir, Prefix: "awra-shard", Guard: guard,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	rec.Counter(obs.MFactScans).Add(2) // counting pass + split pass
	var maxShard int64
	for _, n := range counts {
		if n > maxShard {
			maxShard = n
		}
	}
	if total > 0 {
		// permille: 1000 = perfectly balanced.
		rec.Gauge(obs.GShardSkew).SetMax(maxShard * int64(shards) * 1000 / total)
	}
	splitSpan.SetAttr("records", fmt.Sprint(total))
	splitSpan.SetAttr("shards", fmt.Sprint(shards))
	splitSpan.End()

	// Mark the spanning measures for state extraction.
	var stateIdx []bool
	if len(sp.Merge) > 0 {
		stateIdx = make([]bool, len(c.Measures))
		for _, i := range sp.Merge {
			stateIdx[i] = true
		}
	}

	// Parallel phase: one full sort+scan pipeline per shard. The plan
	// is shared read-only; each engine keeps private state. The derived
	// guard divides the live-cell budget across workers while keeping
	// cancellation and the byte/row budgets query-global.
	sg := guard.Shard(shards)
	t0 := time.Now()
	engines := make([]*engine, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		sSpan := rec.Start(obs.SpanShard)
		sSpan.SetAttr("shard", fmt.Sprint(i))
		sSpan.SetAttr("records", fmt.Sprint(counts[i]))
		go func(i int, sSpan *obs.Span) {
			defer wg.Done()
			defer sSpan.End()
			// CPU profiles attribute shard work to the query (query_id
			// label inherited through the guard's context) and phase.
			pprof.SetGoroutineLabels(pprof.WithLabels(sg.Context(), pprof.Labels("phase", "shard")))
			defer pprof.SetGoroutineLabels(sg.Context())
			// A panic escaping a goroutine kills the process, bypassing
			// the aw boundary's recover; convert it to a shard error.
			defer func() {
				if r := recover(); r != nil {
					if a, ok := r.(qguard.Abort); ok {
						errs[i] = a.Err
						return
					}
					errs[i] = fmt.Errorf("sortscan: shard %d panic: %v", i, r)
				}
			}()
			srec := rec.At(sSpan)
			sorted := paths[i] + ".sorted"
			defer os.Remove(sorted)
			sortSpan := srec.Start(obs.SpanSort)
			ss, err := scan.SortFileByKey(paths[i], sorted, c.Schema, pl.SortKey, scan.SortOptions{
				ChunkRecords: opts.ChunkRecords, TempDir: opts.TempDir,
				BatchBytes: opts.ReadBatchBytes,
				Recorder:   srec.At(sortSpan), Guard: sg,
			})
			sortSpan.SetAttr("runs", fmt.Sprint(ss.Runs))
			sortSpan.End()
			if err != nil {
				errs[i] = err
				return
			}
			r, err := scan.Open(sorted, scan.Options{BatchBytes: opts.ReadBatchBytes, Guard: sg})
			if err != nil {
				errs[i] = err
				return
			}
			defer r.Close()
			e, err := runSortedStates(c, pl, r, false, true, srec, sg, stateIdx)
			if err != nil {
				errs[i] = err
				return
			}
			e.stats.SortRuns = ss.Runs
			engines[i] = e
		}(i, sSpan)
	}
	wg.Wait()
	scanWall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sortscan: shard %d: %w", i, err)
		}
	}
	combSpan := rec.Start(obs.SpanCombine)
	defer combSpan.End()
	out, err := combineShards(c, pl, sp.Merge, engines, rec, guard)
	if err != nil {
		return nil, err
	}
	out.Stats.SortTime = splitSpan.Duration()
	out.Stats.ScanTime = scanWall
	return out, nil
}

// combineShards builds the sharded run's result from the workers'
// engines: measures whose regions nest inside shard units concatenate —
// each output table is built once, sized from the workers' emission
// logs and filled from them directly — and the spanning measures
// (merge, by measure index), whose cells the workers left unfinalized,
// merge per region through their aggregate columns and finalize here.
func combineShards(c *core.Compiled, pl *plan.Plan, merge []int, engines []*engine, rec *obs.Recorder, guard *qguard.Guard) (*Result, error) {
	out := &Result{Tables: make(map[string]*core.Table), Plan: pl}
	for _, e := range engines {
		out.Stats.Records += e.stats.Records
		out.Stats.SortRuns += e.stats.SortRuns
		out.Stats.PeakCells += e.stats.PeakCells
		out.Stats.PeakBytes += e.stats.PeakBytes
		out.Stats.FlushBatches += e.stats.FlushBatches
	}
	merged := make([]bool, len(c.Measures))
	for _, mi := range merge {
		merged[mi] = true
	}
	logs := make([][]logChunk, len(engines))
	for _, name := range c.Outputs() {
		mi, _ := c.Index(name)
		m := c.Measures[mi]
		tbl := core.NewTable(c.Schema, m.Gran)
		out.Tables[name] = tbl
		if merged[mi] {
			continue // filled from the merged states below
		}
		for i, e := range engines {
			logs[i] = e.nodes[mi].log
		}
		var logged int
		tbl.Rows, logged = buildRows(m.Codec.KeyBytes(), logs...)
		// Shards own disjoint regions of a nesting measure, so every
		// logged row is its own map entry. A shortfall means some key was
		// logged twice; produced by two shards, the shard validation was
		// unsound and one shard's partial value overwrote the other's.
		if len(tbl.Rows) != logged {
			if err := crossShardDuplicate(m, logs); err != nil {
				return nil, err
			}
		}
	}
	for _, mi := range merge {
		m := c.Measures[mi]
		kw := m.Codec.KeyBytes()
		tab := cellmap.New(kw)
		acc := m.Agg.NewColumn()
		for _, e := range engines {
			n := e.nodes[mi]
			keys := n.tab.Keys()
			for i := 0; i < n.tab.Len(); i++ {
				st := n.col.State(int32(i))
				at, created := tab.Insert(keys[i*kw : i*kw+kw])
				var err error
				if created {
					_, err = acc.Restore(st)
				} else {
					err = acc.Merge(at, st)
				}
				if err != nil {
					return nil, fmt.Errorf("sortscan: merging %q across shards: %w", m.Name, err)
				}
			}
		}
		cells := tab.Len()
		rec.Counter(obs.MCellsFinalized).Add(int64(cells))
		ns := obs.NodeStats{Node: m.Name, CellsFinalized: int64(cells)}
		if !m.Hidden {
			ns.RecordsOut = int64(cells)
		}
		rec.MergeNodeStats(ns)
		if m.Hidden {
			continue
		}
		keys := string(tab.Keys())
		rows := make(map[model.Key]float64, cells)
		for i := 0; i < cells; i++ {
			rows[model.Key(keys[i*kw:i*kw+kw])] = acc.Final(int32(i))
		}
		out.Tables[m.Name].Rows = rows
		if err := guard.NoteResultRows(int64(cells)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// crossShardDuplicate names a region of m that two shards both logged.
// It runs only after combineShards' length check failed, and returns
// nil when every repeat sits inside one shard's own log, where the
// fill's emission order already resolved it last-wins.
func crossShardDuplicate(m *core.Measure, logs [][]logChunk) error {
	kw := m.Codec.KeyBytes()
	owner := make(map[model.Key]int)
	for shard, log := range logs {
		for _, c := range log {
			for j := range c.vals {
				k := model.Key(c.keys[j*kw : j*kw+kw])
				if prev, dup := owner[k]; dup && prev != shard {
					return fmt.Errorf("sortscan: region %s of %q produced by two shards; shard validation is unsound",
						m.Codec.Format(k), m.Name)
				}
				owner[k] = shard
			}
		}
	}
	return nil
}

// shardAssignment reads the fact file once, counts records per shard
// unit (the record's code on the shard dimension lifted to the shard
// level), and returns a balanced unit -> shard routing function via
// greedy LPT assignment: units descending by size, each to the
// least-loaded shard. If the unit space explodes past a bound, it
// falls back to stateless unit hashing.
func shardAssignment(c *core.Compiled, factPath string, sp opt.ShardChoice, shards int, g *qguard.Guard) (func(*model.Record) int, int64, error) {
	dim := c.Schema.Dim(sp.Dim)
	sdim, slvl := sp.Dim, sp.Level
	hashed := func(r *model.Record) int {
		u := dim.Up(0, slvl, r.Dims[sdim])
		return int(uint64(mixShard(u)) % uint64(shards))
	}
	const maxUnits = 1 << 20
	unitCounts := make(map[int64]int64)
	var total int64
	r, err := scan.Open(factPath, scan.Options{Guard: g})
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	for {
		batch, err := r.NextBatch()
		if err != nil {
			return nil, 0, err
		}
		if batch == nil {
			break
		}
		total += int64(len(batch))
		if unitCounts != nil {
			for _, row := range batch {
				unitCounts[dim.Up(0, slvl, row.Dim(sdim))]++
			}
			if len(unitCounts) > maxUnits {
				unitCounts = nil // too many units to plan; hash instead
			}
		}
	}
	if unitCounts == nil {
		return hashed, total, nil
	}
	type unitCount struct {
		unit int64
		n    int64
	}
	units := make([]unitCount, 0, len(unitCounts))
	for u, n := range unitCounts {
		units = append(units, unitCount{u, n})
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].n != units[j].n {
			return units[i].n > units[j].n
		}
		return units[i].unit < units[j].unit // deterministic ties
	})
	loads := make([]int64, shards)
	route := make(map[int64]int, len(units))
	for _, uc := range units {
		best := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		route[uc.unit] = best
		loads[best] += uc.n
	}
	return func(r *model.Record) int {
		u := dim.Up(0, slvl, r.Dims[sdim])
		if s, ok := route[u]; ok {
			return s
		}
		return hashed(r) // unit unseen by the counting pass
	}, total, nil
}

// mixShard is SplitMix64's finalizer, so hashed shard assignment is
// well distributed even for sequential unit codes.
func mixShard(x int64) int64 {
	u := uint64(x)
	u ^= u >> 30
	u *= 0xbf58476d1ce4e5b9
	u ^= u >> 27
	u *= 0x94d049bb133111eb
	u ^= u >> 31
	return int64(u)
}
