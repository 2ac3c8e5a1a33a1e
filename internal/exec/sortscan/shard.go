package sortscan

import (
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"awra/internal/core"
	"awra/internal/exec/cellmap"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/qguard"
)

// RunSharded evaluates the workflow with partitioned parallelism over
// the sort order itself, on opts.Workers shards (1 or less runs Run).
// The input is read once; the sort routes each row to one of the parts
// by column 0 of the keys it encodes anyway — the leading part of the
// sort key, the shard unit, so each shard owns whole prefix
// groups, balanced greedily by record count (scan.SortByKey). Every
// worker then index-sorts its own rows over the shared key columns and
// scans them with an independent one-pass engine on its own goroutine,
// and the per-shard outputs combine — concatenation for measures whose
// regions nest inside shard units, aggregator-state merge (agg.Merge,
// e.g. COUNT DISTINCT set union) for measures whose regions span them.
// Requires a shardable workflow; see opt.ShardPrefix for the exact
// condition.
//
// The guard's live-cell budget is divided across shards; ChunkRecords
// counts all of them. The recorder gets a "split" span for the one
// routing read, one "shard" span subtree per worker and a "combine"
// span; the stats carry the shards planned and their skew. The run's
// high-water marks are its largest worker's.
func RunSharded(c *core.Compiled, in scan.Input, opts Options) (*scan.Result, error) {
	if opts.Workers <= 1 {
		return Run(c, in, opts)
	}
	opts.EngineOptions = opts.WithDefaults()
	rec := opts.Recorder
	pl, err := plan.Build(c, opts.SortKey, opts.Stats)
	if err != nil {
		return nil, err
	}
	sp, err := opt.ShardPrefix(c, pl.SortKey)
	if err != nil {
		return nil, fmt.Errorf("sortscan: %w", err)
	}
	guard := opts.Guard
	shards := opts.Workers

	// Split: the sort's load phase. One read fills the row arena and the
	// key columns and routes every row by key column 0, the shard unit.
	splitSpan := rec.Start(obs.SpanSplit)
	defer splitSpan.End()
	so := opts.EngineOptions
	so.Recorder = rec.At(splitSpan)
	sorted, err := scan.SortByKey(in, c.Schema, pl.SortKey, nil, shards, so)
	if err != nil {
		return nil, err
	}
	defer sorted.Close()
	split := sorted.EngineStats()
	split.ShardsPlanned = int64(shards)
	total := sorted.Stats().Records
	var maxShard int64
	for i := 0; i < shards; i++ {
		maxShard = max(maxShard, sorted.Rows(i))
	}
	if total > 0 {
		// permille: 1000 = perfectly balanced.
		split.ShardSkew = maxShard * int64(shards) * 1000 / total
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

	// Parallel phase: one sort+scan pipeline per shard. The plan and the
	// sort's rows and key columns are shared read-only; each engine keeps
	// private state. The derived guard divides the live-cell budget
	// across workers while keeping cancellation and the byte/row budgets
	// query-global.
	sg := guard.Shard(shards)
	engines := make([]*engine, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		sSpan := rec.Start(obs.SpanShard)
		sSpan.SetAttr("shard", fmt.Sprint(i))
		sSpan.SetAttr("records", fmt.Sprint(sorted.Rows(i)))
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
			wo := opts
			wo.Recorder, wo.Guard = rec.At(sSpan), sg
			sortSpan := wo.Recorder.Start(obs.SpanSort)
			src, err := sorted.Open(i)
			sortSpan.SetAttr("runs", fmt.Sprint(sorted.Runs(i)))
			sortSpan.End()
			if err != nil {
				errs[i] = err
				return
			}
			defer src.Close()
			e, err := runSortedStates(c, pl, src, wo, stateIdx)
			if err != nil {
				errs[i] = err
				return
			}
			e.stats.SortTime = sortSpan.Duration()
			engines[i] = e
		}(i, sSpan)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sortscan: shard %d: %w", i, err)
		}
	}
	combSpan := rec.Start(obs.SpanCombine)
	defer combSpan.End()
	out, err := combineShards(c, sp.Merge, engines, guard)
	for _, e := range engines {
		e.release()
	}
	if err != nil {
		return nil, err
	}
	combSpan.End()
	out.Stats.SortTime += splitSpan.Duration()
	out.Stats.CombineTime = combSpan.Duration()
	out.Stats.Add(split)
	return out, nil
}

// combineShards builds the sharded run's result from the workers'
// engines: measures whose regions nest inside shard units concatenate —
// each output table is built once, sized from the workers' emission
// logs and filled from them directly, the tables largest first on as
// many goroutines as there were workers — and the spanning measures
// (merge, by measure index), whose cells the workers left unfinalized,
// merge per region through their aggregate columns and finalize here.
// The workers' stats fold as the recorder folds them, except that the
// times are the slowest worker's: the workers ran side by side. It adds
// the one fact scan and the merged cells.
func combineShards(c *core.Compiled, merge []int, engines []*engine, guard *qguard.Guard) (*scan.Result, error) {
	out := &scan.Result{Tables: make(map[string]*core.Table), Stats: obs.EngineStats{FactScans: 1}}
	var sortTime, scanTime time.Duration
	for _, e := range engines {
		out.Stats.Add(e.stats)
		sortTime = max(sortTime, e.stats.SortTime)
		scanTime = max(scanTime, e.stats.ScanTime)
	}
	out.Stats.SortTime, out.Stats.ScanTime = sortTime, scanTime
	merged := make([]bool, len(c.Measures))
	for _, mi := range merge {
		merged[mi] = true
	}
	// concat is one nesting output: its table, and every worker's log of
	// it in shard order.
	type concat struct {
		m    *core.Measure
		tbl  *core.Table
		logs [][]logChunk
		size int // rows logged: what the build costs
		err  error
	}
	var jobs []*concat
	for _, name := range c.Outputs() {
		mi, _ := c.Index(name)
		m := c.Measures[mi]
		tbl := core.NewTable(c.Schema, m.Gran)
		out.Tables[name] = tbl
		if merged[mi] {
			continue // filled from the merged states below
		}
		j := &concat{m: m, tbl: tbl, logs: make([][]logChunk, len(engines))}
		for i, e := range engines {
			j.logs[i] = e.nodes[mi].log
			for _, ch := range j.logs[i] {
				j.size += len(ch.vals)
			}
		}
		jobs = append(jobs, j)
	}
	// The tables are independent map builds; the largest go first so the
	// last goroutine to finish holds a small one.
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].size > jobs[b].size })
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < min(len(engines), len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				at := int(next.Add(1)) - 1
				if at >= len(jobs) {
					return
				}
				j := jobs[at]
				var logged int
				j.tbl.Rows, logged = buildRows(j.m.Codec.KeyBytes(), j.logs...)
				// Shards own disjoint regions of a nesting measure, so every
				// logged row is its own map entry. A shortfall means some key
				// was logged twice; produced by two shards, the shard
				// validation was unsound and one shard's partial value
				// overwrote the other's.
				if len(j.tbl.Rows) != logged {
					j.err = crossShardDuplicate(j.m, j.logs)
				}
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		if j.err != nil {
			return nil, j.err
		}
	}
	for _, mi := range merge {
		m := c.Measures[mi]
		kw := m.Codec.KeyBytes()
		tab := cellmap.New(kw)
		acc := m.Agg.NewColumn()
		ids := make([]int32, cellmap.PageKeys)
		for _, e := range engines {
			// Each page of a worker's arena is one probe batch. A worker's
			// keys are distinct, so an id at or past the table's earlier
			// Len is a cell the batch created, in id order.
			n := e.nodes[mi]
			for p := 0; p < n.tab.Pages(); p++ {
				cnt, keys := n.tab.Page(p)
				before := int32(tab.Len())
				tab.InsertBatch(keys, ids[:cnt])
				for j, at := range ids[:cnt] {
					st := n.col.State(int32(p*cellmap.PageKeys + j))
					var err error
					if at >= before {
						_, err = acc.Restore(st)
					} else {
						err = acc.Merge(at, st)
					}
					if err != nil {
						return nil, fmt.Errorf("sortscan: merging %q across shards: %w", m.Name, err)
					}
				}
			}
		}
		cells := tab.Len()
		out.Stats.CellsFinalized += int64(cells)
		ns := obs.NodeStats{Node: m.Name, CellsFinalized: int64(cells)}
		if !m.Hidden {
			ns.RecordsOut = int64(cells)
		}
		out.Stats.Nodes = append(out.Stats.Nodes, ns)
		if m.Hidden {
			tab.Release()
			continue
		}
		rows := make(map[model.Key]float64, cells)
		for p, page := range tab.Freeze() {
			for j := range min(cells-p*cellmap.PageKeys, cellmap.PageKeys) {
				rows[model.Key(page[j*kw:j*kw+kw])] = acc.Final(int32(p*cellmap.PageKeys + j))
			}
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
