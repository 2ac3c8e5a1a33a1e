// Package opt chooses sort orders for sort/scan passes (Section 6 of
// the paper). The evaluation cost model treats sorting and scanning as
// key-independent, so the optimizer minimizes the estimated in-memory
// footprint of the streaming plan. Like the paper's experiments, the
// default strategy is brute force over candidate sort orders ("we used
// brute force to search all possible sort orders and identify the one
// with the smallest estimated minimal memory footprint"); a greedy
// variant handles higher-dimensional schemas where enumeration
// explodes (the general problem is a form of assignment problem and
// NP-hard).
package opt

import (
	"fmt"
	"sort"

	"awra/internal/core"
	"awra/internal/model"
	"awra/internal/plan"
)

// relevantLevels collects, per dimension, the levels that appear in
// any measure's granularity (plus the sibling-window levels). Sort
// keys only ever need these levels: sorting finer than every measure
// wastes nothing but gains nothing either, and coarser levels lose
// ordering information.
func relevantLevels(c *core.Compiled) [][]model.Level {
	sch := c.Schema
	sets := make([]map[model.Level]bool, sch.NumDims())
	for i := range sets {
		sets[i] = map[model.Level]bool{}
	}
	for _, m := range c.Measures {
		for d, l := range m.Gran {
			if l != sch.Dim(d).ALL() {
				sets[d][l] = true
			}
		}
	}
	out := make([][]model.Level, sch.NumDims())
	for d, set := range sets {
		for l := range set {
			out[d] = append(out[d], l)
		}
		sort.Slice(out[d], func(i, j int) bool { return out[d][i] < out[d][j] })
	}
	return out
}

// Candidates enumerates candidate sort keys: permutations of the
// dimensions that appear in some measure, each dimension at each of
// its relevant levels. The count is bounded by maxKeys (0 = no bound).
func Candidates(c *core.Compiled, maxKeys int) []model.SortKey {
	levels := relevantLevels(c)
	var dims []int
	for d, ls := range levels {
		if len(ls) > 0 {
			dims = append(dims, d)
		}
	}
	var out []model.SortKey
	var permute func(remaining []int, prefix model.SortKey)
	permute = func(remaining []int, prefix model.SortKey) {
		if maxKeys > 0 && len(out) >= maxKeys {
			return
		}
		if len(prefix) > 0 {
			k := make(model.SortKey, len(prefix))
			copy(k, prefix)
			out = append(out, k)
		}
		for i, d := range remaining {
			rest := make([]int, 0, len(remaining)-1)
			rest = append(rest, remaining[:i]...)
			rest = append(rest, remaining[i+1:]...)
			for _, l := range levels[d] {
				permute(rest, append(prefix, model.SortPart{Dim: d, Lvl: l}))
			}
		}
	}
	permute(dims, nil)
	if len(out) == 0 {
		// Degenerate workflow (everything at ALL): any key works.
		out = append(out, model.SortKey{{Dim: 0, Lvl: 0}})
	}
	return out
}

// Choice is a scored sort key.
type Choice struct {
	Key      model.SortKey
	EstBytes float64
	Plan     *plan.Plan
	// KeysScored is how many candidate keys the search that chose it
	// scored (Best and Greedy; the caller publishes it as
	// opt_keys_scored).
	KeysScored int
}

// BruteForce scores every candidate sort key and returns them sorted
// by estimated footprint, best first: the keys scored are the result's
// length.
func BruteForce(c *core.Compiled, stats *plan.Stats, maxKeys int) ([]Choice, error) {
	cands := Candidates(c, maxKeys)
	choices := make([]Choice, 0, len(cands))
	for _, k := range cands {
		p, err := plan.Build(c, k, stats)
		if err != nil {
			return nil, fmt.Errorf("opt: scoring %v: %w", k, err)
		}
		choices = append(choices, Choice{Key: p.SortKey, EstBytes: p.EstBytes, Plan: p})
	}
	sort.SliceStable(choices, func(i, j int) bool {
		if choices[i].EstBytes != choices[j].EstBytes {
			return choices[i].EstBytes < choices[j].EstBytes
		}
		return len(choices[i].Key) < len(choices[j].Key)
	})
	return choices, nil
}

// Best returns the lowest-footprint sort key for the workflow.
func Best(c *core.Compiled, stats *plan.Stats) (Choice, error) {
	maxKeys := 0
	if c.Schema.NumDims() > 5 {
		// Enumeration explodes combinatorially; fall back to greedy.
		return Greedy(c, stats)
	}
	choices, err := BruteForce(c, stats, maxKeys)
	if err != nil {
		return Choice{}, err
	}
	best := choices[0]
	best.KeysScored = len(choices)
	return best, nil
}

// Greedy builds a sort key one part at a time, at each step appending
// the (dimension, level) whose addition reduces the estimated
// footprint the most. It evaluates O(d^2 * levels) plans instead of
// O(d! * levels^d).
func Greedy(c *core.Compiled, stats *plan.Stats) (Choice, error) {
	levels := relevantLevels(c)
	used := make([]bool, c.Schema.NumDims())
	var key model.SortKey

	scored := 0
	score := func(k model.SortKey) (float64, *plan.Plan, error) {
		if len(k) == 0 {
			return 1e300, nil, nil
		}
		scored++
		p, err := plan.Build(c, k, stats)
		if err != nil {
			return 0, nil, err
		}
		return p.EstBytes, p, nil
	}
	best, bestPlan, err := score(key)
	if err != nil {
		return Choice{}, err
	}
	for {
		improved := false
		var bestNext model.SortKey
		var bestNextPlan *plan.Plan
		bestScore := best
		for d := range levels {
			if used[d] {
				continue
			}
			for _, l := range levels[d] {
				cand := append(append(model.SortKey{}, key...), model.SortPart{Dim: d, Lvl: l})
				s, p, err := score(cand)
				if err != nil {
					return Choice{}, err
				}
				if s < bestScore {
					bestScore, bestNext, bestNextPlan, improved = s, cand, p, true
				}
			}
		}
		if !improved {
			break
		}
		key, best, bestPlan = bestNext, bestScore, bestNextPlan
		used[key[len(key)-1].Dim] = true
	}
	if bestPlan == nil {
		// Nothing helped (e.g. all measures at ALL); pick any key.
		key = model.SortKey{{Dim: 0, Lvl: 0}}
		p, err := plan.Build(c, key, stats)
		if err != nil {
			return Choice{}, err
		}
		return Choice{Key: p.SortKey, EstBytes: p.EstBytes, Plan: p, KeysScored: scored}, nil
	}
	return Choice{Key: bestPlan.SortKey, EstBytes: best, Plan: bestPlan, KeysScored: scored}, nil
}
