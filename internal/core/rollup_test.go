package core

import (
	"math"
	"math/rand"
	"testing"

	"awra/internal/agg"
	"awra/internal/model"
)

var rollUpKinds = []agg.Kind{
	agg.Count, agg.CountNonNull, agg.Sum, agg.Min, agg.Max, agg.Avg, agg.Var, agg.StdDev,
	agg.CountDistinct, agg.First, agg.Last, agg.ConstZero, agg.Median, agg.P95,
}

// hostileTable fills a table at granularity g with random cells whose
// values include NULL, both zeros, infinities and repeats.
func hostileTable(rng *rand.Rand, s *model.Schema, g model.Gran, cells int) *Table {
	t := NewTable(s, g)
	specials := []float64{agg.Null(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, -2}
	for i := 0; i < cells; i++ {
		v := rng.NormFloat64() * 1e6
		if rng.Intn(3) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		t.Rows[t.Codec.FromBase([]int64{rng.Int63n(1000), rng.Int63n(1000)})] = v
	}
	return t
}

func sameTableBits(a, b *Table) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for k, v := range a.Rows {
		w, ok := b.Rows[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestRollUpOrderedAndUnorderedAgree: on random tables, with and
// without a filter, ComputeComposite's roll-up equals the plain
// definition — boxed aggregators fed in sorted key order — bit for bit
// for every kind, and for the kinds that claim OrderInsensitive RollUp
// gives those bits whatever order its source is enumerated in.
func TestRollUpOrderedAndUnorderedAgree(t *testing.T) {
	s := twoDim(t)
	rng := rand.New(rand.NewSource(21))
	fine := model.Gran{0, 1}
	coarse := model.Gran{2, model.LevelALL}
	positive := MWhere(0, Gt, 0)
	for _, k := range rollUpKinds {
		for trial := 0; trial < 20; trial++ {
			w := NewWorkflow(s).Basic("b", fine, agg.Sum, 0)
			var filter *Predicate
			if trial%2 == 1 {
				filter = &positive
				w.Rollup("r", coarse, "b", k, Where(positive))
			} else {
				w.Rollup("r", coarse, "b", k)
			}
			c, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			bi, _ := c.Index("b")
			ri, _ := c.Index("r")
			m := c.Measures[ri]
			tables := make([]*Table, len(c.Measures))
			src := hostileTable(rng, s, fine, 1+rng.Intn(400))
			tables[bi] = src

			want := NewTable(s, m.Gran)
			groups := map[model.Key]agg.Aggregator{}
			for _, key := range src.SortedKeys() {
				v := src.Rows[key]
				if filter != nil && !filter.Eval(src.Codec.FullDecode(key), []float64{v}) {
					continue
				}
				up := src.Codec.UpTo(key, want.Codec)
				if groups[up] == nil {
					groups[up] = k.New()
				}
				groups[up].Update(v)
			}
			for key, a := range groups {
				want.Rows[key] = a.Final()
			}

			got, err := ComputeComposite(c, m, tables)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTableBits(got, want) {
				t.Fatalf("%v (filter %v): ComputeComposite differs from the sorted-order definition", k, filter != nil)
			}
			if !k.OrderInsensitive() {
				continue
			}
			// Sorted, map and reversed order: any enumeration will do.
			keys := src.SortedKeys()
			for name, each := range map[string]func(func(model.Key, float64)){
				"sorted": func(yield func(model.Key, float64)) {
					for _, key := range keys {
						yield(key, src.Rows[key])
					}
				},
				"map": func(yield func(model.Key, float64)) {
					for key, v := range src.Rows {
						yield(key, v)
					}
				},
				"reversed": func(yield func(model.Key, float64)) {
					for i := len(keys) - 1; i >= 0; i-- {
						yield(keys[i], src.Rows[keys[i]])
					}
				},
			} {
				if out := RollUp(c, m, each); !sameTableBits(out, want) {
					t.Fatalf("%v (filter %v, %s order): roll-up differs from the sorted-order definition", k, filter != nil, name)
				}
			}
		}
	}
}

// TestFilteredRollUpAllocatesPerParent: a filtered roll-up decodes each
// source row's key for its filter into one reused buffer, so over 10k
// source rows it allocates per parent cell (a key, a group, the result
// maps' growth), not per source row.
func TestFilteredRollUpAllocatesPerParent(t *testing.T) {
	s := twoDim(t)
	rng := rand.New(rand.NewSource(36))
	w := NewWorkflow(s).Basic("b", model.Gran{0, 1}, agg.Sum, 0).
		Rollup("r", model.Gran{1, model.LevelALL}, "b", agg.Sum, Where(MWhere(0, Gt, 0)))
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	bi, _ := c.Index("b")
	ri, _ := c.Index("r")
	src := NewTable(s, c.Measures[bi].Gran)
	for len(src.Rows) < 10_000 {
		src.Rows[src.Codec.FromBase([]int64{rng.Int63n(1000), rng.Int63n(1000)})] = float64(rng.Intn(10) - 2)
	}
	keys := src.SortedKeys()
	each := func(yield func(model.Key, float64)) {
		for _, k := range keys {
			yield(k, src.Rows[k])
		}
	}
	parents := len(RollUp(c, c.Measures[ri], each).Rows)
	allocs := testing.AllocsPerRun(5, func() { RollUp(c, c.Measures[ri], each) })
	t.Logf("%.0f allocations for %d source rows, %d parent cells", allocs, len(keys), parents)
	if limit := float64(4*parents + 64); allocs > limit {
		t.Errorf("%.0f allocations rolling %d source rows up to %d parent cells, want at most %.0f",
			allocs, len(keys), parents, limit)
	}
}

// TestMatchJoinsAllocatePerTable: a from-parent and a sibling measure
// over 10k base cells build their result map at its final size,
// aggregate each cell in one reused column cell and build parent and
// neighbour keys in one reused buffer, so no cell allocates: what is
// left is the map's tables and a fixed few, far fewer than the cells.
func TestMatchJoinsAllocatePerTable(t *testing.T) {
	s := twoDim(t)
	rng := rand.New(rand.NewSource(37))
	w := NewWorkflow(s).Basic("b", model.Gran{0, 1}, agg.Sum, 0).
		Rollup("p", model.Gran{1, model.LevelALL}, "b", agg.Sum).
		FromParent("f", model.Gran{0, 1}, "p", agg.Sum).
		Sliding("w", "b", agg.Avg, []Window{{Dim: 0, Lo: -1, Hi: 1}, {Dim: 1, Lo: 0, Hi: 2}})
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const cells = 10_000
	src := NewTable(s, model.Gran{0, 1})
	for len(src.Rows) < cells {
		src.Rows[src.Codec.FromBase([]int64{rng.Int63n(1000), rng.Int63n(1000)})] = float64(rng.Intn(10) - 2)
	}
	tables := make([]*Table, len(c.Measures))
	for i, m := range c.Measures {
		switch {
		case m.Kind == KindBasic:
			tables[i] = src // "b" and the hidden bases share its cells
		case m.Name == "p":
			if tables[i], err = ComputeComposite(c, m, tables); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"f", "w"} {
		i, _ := c.Index(name)
		m := c.Measures[i]
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ComputeComposite(c, m, tables); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations over %d base cells", name, allocs, cells)
		if limit := 64.0; allocs > limit {
			t.Errorf("%s: %.0f allocations over %d base cells, want at most %.0f", name, allocs, cells, limit)
		}
	}
}
