// Package multipass implements the multi-pass sort/scan strategy of
// Section 5.3 ("Multi-Pass Sort/Scan"): when no single sort order
// keeps every measure's footprint within the memory budget, the
// basic measures are partitioned into several sort/scan passes, each
// with its own sort order; measures produced in different passes are
// materialized, and composite measures that span passes are combined
// with traditional (in-memory hash join) strategies once all of their
// inputs exist — exactly the paper's "materialize each individual
// dependent measure during the SS iteration and resort to traditional
// join strategies to combine them".
package multipass

import (
	"fmt"
	"sort"

	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/exec/sortscan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
)

// Options configures a run. The recorder receives one "pass" span per
// sort/scan iteration (each containing the sortscan engine's spans)
// plus a "combine" span; the guard is checked inside each pass and
// between passes.
type Options struct {
	scan.EngineOptions
	// MemoryBudget bounds the estimated footprint of each pass's
	// streaming plan, in bytes. 0 means a single pass.
	MemoryBudget float64
	// Stats supplies cardinality estimates for footprint estimation.
	Stats *plan.Stats
}

// Pass describes one sort/scan iteration of the chosen plan.
type Pass struct {
	SortKey  model.SortKey
	Measures []string // basic measures evaluated in this pass
	EstBytes float64
}

// PlanPasses partitions the workflow's basic measures into passes:
// greedily, each pass picks the candidate sort key whose plan keeps
// the largest number of still-unassigned basic measures within the
// budget, claims those measures, and repeats. A measure whose
// footprint exceeds the budget under every key is assigned alone to
// its best key (it cannot be helped by more passes).
func PlanPasses(c *core.Compiled, budget float64, stats *plan.Stats) ([]Pass, error) {
	var basics []int
	for i, m := range c.Measures {
		if m.Kind == core.KindBasic {
			basics = append(basics, i)
		}
	}
	if len(basics) == 0 {
		return nil, fmt.Errorf("multipass: workflow has no basic measures")
	}
	choices, err := opt.BruteForce(c, stats, 0)
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		best := choices[0]
		p := Pass{SortKey: best.Key, EstBytes: best.EstBytes}
		for _, i := range basics {
			p.Measures = append(p.Measures, c.Measures[i].Name)
		}
		return []Pass{p}, nil
	}

	unassigned := map[int]bool{}
	for _, i := range basics {
		unassigned[i] = true
	}
	var passes []Pass
	for len(unassigned) > 0 {
		type fit struct {
			covered []int
			bytes   float64
			key     model.SortKey
		}
		var best fit
		for _, ch := range choices {
			var covered []int
			var bytes float64
			// Claim unassigned measures cheapest-first under this key.
			var cands []int
			for i := range unassigned {
				cands = append(cands, i)
			}
			sort.Slice(cands, func(a, b int) bool {
				ca := ch.Plan.Nodes[cands[a]].EstCells
				cb := ch.Plan.Nodes[cands[b]].EstCells
				if ca != cb {
					return ca < cb
				}
				return cands[a] < cands[b]
			})
			for _, i := range cands {
				cost := ch.Plan.Nodes[i].EstCells * float64(48+c.Measures[i].Codec.KeyBytes())
				if bytes+cost <= budget {
					covered = append(covered, i)
					bytes += cost
				}
			}
			if len(covered) > len(best.covered) || (len(covered) == len(best.covered) && len(best.covered) > 0 && bytes < best.bytes) {
				best = fit{covered: covered, bytes: bytes, key: ch.Key}
			}
		}
		if len(best.covered) == 0 {
			// Some measure exceeds the budget under every key: give it
			// its own pass under its individually best key.
			var victim int
			for i := range unassigned {
				victim = i
				break
			}
			bestBytes := 0.0
			var bestKey model.SortKey
			for _, ch := range choices {
				cost := ch.Plan.Nodes[victim].EstCells * float64(48+c.Measures[victim].Codec.KeyBytes())
				if bestKey == nil || cost < bestBytes {
					bestBytes, bestKey = cost, ch.Key
				}
			}
			best = fit{covered: []int{victim}, bytes: bestBytes, key: bestKey}
		}
		p := Pass{SortKey: best.key, EstBytes: best.bytes}
		sort.Ints(best.covered)
		for _, i := range best.covered {
			p.Measures = append(p.Measures, c.Measures[i].Name)
			delete(unassigned, i)
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// Run plans the passes and executes them over the input, then
// combines cross-pass composites. The passes' stats fold as the
// recorder folds them.
func Run(c *core.Compiled, in scan.Input, opts Options) (*scan.Result, error) {
	opts.EngineOptions = opts.WithDefaults()
	orec := opts.Recorder
	passes, err := PlanPasses(c, opts.MemoryBudget, opts.Stats)
	if err != nil {
		return nil, err
	}
	res := &scan.Result{Stats: obs.EngineStats{Passes: int64(len(passes))}}

	tables := make([]*core.Table, len(c.Measures))
	for pi, p := range passes {
		if err := opts.Guard.Err(); err != nil {
			return nil, err
		}
		// The pass sub-workflow: just this pass's basic measures, under
		// their own names so tables and node stats match the workflow's.
		sub, err := c.Basics(p.Measures)
		if err != nil {
			return nil, fmt.Errorf("multipass: pass workflow: %w", err)
		}
		passSpan := orec.Start(obs.SpanPass)
		passSpan.SetAttr("pass", fmt.Sprint(pi))
		passSpan.SetAttr("key", p.SortKey.String(c.Schema))
		po := sortscan.Options{EngineOptions: opts.EngineOptions, SortKey: p.SortKey, Stats: opts.Stats}
		po.Recorder = orec.At(passSpan)
		pr, err := sortscan.Run(sub, in, po)
		passSpan.End()
		if err != nil {
			return nil, fmt.Errorf("multipass: pass %s: %w", p.SortKey.String(c.Schema), err)
		}
		res.Stats.Add(pr.Stats)
		for _, name := range p.Measures {
			i, err := c.Index(name)
			if err != nil {
				return nil, err
			}
			tables[i] = pr.Tables[name]
		}
	}

	// Combine composites with traditional in-memory strategies, in
	// topological order.
	if res.Tables, err = opts.Composites(c, tables, nil, &res.Stats); err != nil {
		return nil, fmt.Errorf("multipass: %w", err)
	}
	return res, nil
}
