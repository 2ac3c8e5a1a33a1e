package agg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// hostileValue draws from the values that break naive aggregates:
// NULL, both infinities, both zeros, repeats, and ordinary numbers.
func hostileValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return Null()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5, 6:
		return float64(rng.Intn(5) - 2)
	}
	return rng.NormFloat64() * 1e3
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameState(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkCell compares one column cell with its boxed twin on everything
// the column exposes.
func checkCell(t *testing.T, k Kind, c *Column, i int32, a Aggregator) {
	t.Helper()
	if got, want := c.Final(i), a.Final(); !sameBits(got, want) {
		t.Fatalf("%v cell %d: Final = %v (%#x), boxed %v (%#x)", k, i, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := c.State(i), a.State(); !sameState(got, want) {
		t.Fatalf("%v cell %d: State = %v, boxed %v", k, i, got, want)
	}
	if got, want := c.Bytes(i), a.Bytes(); got != want {
		t.Fatalf("%v cell %d: Bytes = %d, boxed %d", k, i, got, want)
	}
}

// TestColumnMatchesBoxed: for every kind, a column cell and the boxed
// Aggregator fed the same stream agree bit for bit after every step —
// Final, State, Bytes, and the growth Update reports — with cells
// appended while others are live (slab growth moves them), singly and
// through the bulk AppendN and UpdateAll, across Keep
// compactions to a random subset (the survivors go on absorbing values
// under their new ids) and across a Reset.
func TestColumnMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, k := range allKinds {
		c := k.NewColumn()
		for round := 0; round < 2; round++ {
			var twins []Aggregator
			for step := 0; step < 3000; step++ {
				if len(twins) == 0 || rng.Intn(20) == 0 {
					if id := c.Append(); int(id) != len(twins) || c.Len() != len(twins)+1 {
						t.Fatalf("%v: Append = %d, Len = %d with %d cells", k, id, c.Len(), len(twins))
					}
					twins = append(twins, k.New())
					checkCell(t, k, c, int32(len(twins)-1), twins[len(twins)-1])
				}
				if step%500 == 499 {
					var ids []int32
					kept := twins[:0]
					for i, a := range twins {
						if rng.Intn(3) > 0 {
							ids = append(ids, int32(i))
							kept = append(kept, a)
						}
					}
					c.Keep(ids)
					if twins = kept; c.Len() != len(twins) {
						t.Fatalf("%v: Len = %d after Keep of %d cells", k, c.Len(), len(twins))
					}
					for i, a := range twins {
						checkCell(t, k, c, int32(i), a)
					}
					continue
				}
				if step%50 == 49 {
					// The bulk forms: a run of new cells, then one UpdateAll
					// over ids that repeat, new cells among them.
					n := rng.Intn(40)
					c.AppendN(n)
					for ; n > 0; n-- {
						twins = append(twins, k.New())
					}
					if c.Len() != len(twins) {
						t.Fatalf("%v: Len = %d after AppendN with %d cells", k, c.Len(), len(twins))
					}
					ids, vs := make([]int32, rng.Intn(64)), make([]float64, 64)
					grew := 0
					for j := range ids {
						ids[j], vs[j] = int32(rng.Intn(len(twins))), hostileValue(rng)
						before := twins[ids[j]].Bytes()
						twins[ids[j]].Update(vs[j])
						grew += twins[ids[j]].Bytes() - before
					}
					if got := c.UpdateAll(ids, vs); got != grew {
						t.Fatalf("%v: UpdateAll reported %d bytes of growth, boxed grew %d", k, got, grew)
					}
					for i, a := range twins {
						checkCell(t, k, c, int32(i), a)
					}
					continue
				}
				i := int32(rng.Intn(len(twins)))
				v := hostileValue(rng)
				before := twins[i].Bytes()
				twins[i].Update(v)
				if grew, want := c.Update(i, v), twins[i].Bytes()-before; grew != want {
					t.Fatalf("%v: Update reported %d bytes of growth, boxed grew %d", k, grew, want)
				}
				checkCell(t, k, c, i, twins[i])
			}
			for i, a := range twins {
				checkCell(t, k, c, int32(i), a)
			}
			c.Reset()
			if c.Len() != 0 {
				t.Fatalf("%v: Len = %d after Reset", k, c.Len())
			}
		}
	}
}

// TestColumnRestoreMerge: a serialized state restored into a column and
// merged with a second one equals Kind.Restore plus Aggregator.Merge,
// including the first generation's negative zero a merge into a fresh
// cell would lose.
func TestColumnRestoreMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range allKinds {
		for trial := 0; trial < 200; trial++ {
			gens := make([][]float64, 1+rng.Intn(3))
			for g := range gens {
				a := k.New()
				for n := rng.Intn(6); n > 0; n-- {
					a.Update(hostileValue(rng))
				}
				gens[g] = a.State()
			}
			want, err := k.Restore(gens[0])
			if err != nil {
				t.Fatal(err)
			}
			c := k.NewColumn()
			c.Append() // a bystander, so the restored cell is not cell 0
			id, err := c.Restore(gens[0])
			if err != nil || id != 1 {
				t.Fatalf("%v: Restore = (%d, %v)", k, id, err)
			}
			for _, st := range gens[1:] {
				o, err := k.Restore(st)
				if err != nil {
					t.Fatal(err)
				}
				want.Merge(o)
				if err := c.Merge(id, st); err != nil {
					t.Fatal(err)
				}
			}
			checkCell(t, k, c, id, want)
		}
		if k.Algebraic() && k != ConstZero {
			c := k.NewColumn()
			if _, err := c.Restore(make([]float64, 7)); err == nil {
				t.Errorf("%v: Restore accepted a 7-value state", k)
			}
			c.Append()
			if err := c.Merge(0, make([]float64, 7)); err == nil {
				t.Errorf("%v: Merge accepted a 7-value state", k)
			}
		}
	}
}

// feedBits is feed's result as bits, for exact comparison.
func feedBits(k Kind, vs []float64) uint64 { return math.Float64bits(feed(k, vs)) }

// TestOrderInsensitive makes OrderInsensitive an executable property:
// a kind that claims it gives the same bits for sorted and shuffled
// input on hostile multisets, and every kind that does not claim it has
// a witness here (or, for the quantiles, is left unclaimed because the
// order of equal-comparing values after their sort is unspecified).
func TestOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range allKinds {
		if !k.OrderInsensitive() {
			continue
		}
		for trial := 0; trial < 500; trial++ {
			vs := make([]float64, rng.Intn(12))
			for i := range vs {
				vs[i] = hostileValue(rng)
			}
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted) // NaNs first, then ascending; -0 and +0 in either order
			want := feedBits(k, sorted)
			for shuffle := 0; shuffle < 4; shuffle++ {
				rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
				if got := feedBits(k, vs); got != want {
					t.Fatalf("%v claims OrderInsensitive but %v gives %#x, sorted gives %#x", k, vs, got, want)
				}
			}
		}
	}
	negZero := math.Copysign(0, -1)
	witnesses := map[Kind][2][]float64{
		Sum:    {{1e16, 1, -1e16}, {1e16, -1e16, 1}},
		Avg:    {{1e16, 1, -1e16}, {1e16, -1e16, 1}},
		Var:    {{1e8, 1, -1e8, 3}, {1, 3, 1e8, -1e8}},
		StdDev: {{1e8, 1, -1e8, 3}, {1, 3, 1e8, -1e8}},
		Min:    {{0, negZero}, {negZero, 0}},
		Max:    {{0, negZero}, {negZero, 0}},
		First:  {{1, 2}, {2, 1}},
		Last:   {{1, 2}, {2, 1}},
	}
	for _, k := range allKinds {
		w, ok := witnesses[k]
		switch {
		case k.OrderInsensitive() && ok:
			t.Errorf("%v claims OrderInsensitive and has a witness against it", k)
		case !k.OrderInsensitive() && !ok && k != Median && k != P95:
			t.Errorf("%v does not claim OrderInsensitive and no witness says why", k)
		case ok && feedBits(k, w[0]) == feedBits(k, w[1]):
			t.Errorf("%v: %v and %v aggregate to the same bits; it could claim OrderInsensitive", k, w[0], w[1])
		}
	}
}

// TestColumnPagesMatchBoxed runs every kind at the slab's page edges —
// one cell, a page less one, a page, a page and one, three pages and
// one — against boxed twins: a run of AppendN, cells restored from
// serialized states, UpdateAll over every cell and single Updates,
// merged states, a Keep to every other cell followed by growth back
// across the edge, and a Reset and refill whose cells must read fresh.
// Final and State agree bit for bit throughout.
func TestColumnPagesMatchBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checkAll := func(k Kind, c *Column, twins []Aggregator) {
		t.Helper()
		if c.Len() != len(twins) {
			t.Fatalf("%v: Len = %d with %d cells", k, c.Len(), len(twins))
		}
		for i, a := range twins {
			checkCell(t, k, c, int32(i), a)
		}
	}
	fed := func(k Kind) Aggregator {
		a := k.New()
		for n := rng.Intn(4); n > 0; n-- {
			a.Update(hostileValue(rng))
		}
		return a
	}
	for _, k := range allKinds {
		for _, size := range []int{1, 4095, 4096, 4097, 12289} {
			c := k.NewColumn()
			var twins []Aggregator
			appended := size / 2
			c.AppendN(appended)
			for i := 0; i < appended; i++ {
				twins = append(twins, k.New())
			}
			for len(twins) < size {
				st := fed(k).State()
				if id, err := c.Restore(st); err != nil || int(id) != len(twins) {
					t.Fatalf("%v: Restore = (%d, %v) with %d cells", k, id, err, len(twins))
				}
				a, _ := k.Restore(st)
				twins = append(twins, a)
			}
			ids, vs := make([]int32, 2*size), make([]float64, 2*size)
			for j := range ids {
				ids[j], vs[j] = int32(j%size), hostileValue(rng)
				twins[ids[j]].Update(vs[j])
			}
			c.UpdateAll(ids, vs)
			for n := 0; n < 64; n++ {
				i, v := int32(rng.Intn(size)), hostileValue(rng)
				twins[i].Update(v)
				c.Update(i, v)
				st := fed(k).State()
				o, _ := k.Restore(st)
				twins[i].Merge(o)
				if err := c.Merge(i, st); err != nil {
					t.Fatal(err)
				}
			}
			checkAll(k, c, twins)

			var keep []int32
			kept := twins[:0]
			for i, a := range twins {
				if i%2 == 1 {
					keep = append(keep, int32(i))
					kept = append(kept, a)
				}
			}
			c.Keep(keep)
			twins = kept
			checkAll(k, c, twins)
			c.AppendN(size - len(twins))
			for len(twins) < size {
				twins = append(twins, k.New())
			}
			for j := range ids[:size] {
				ids[j] = int32(size - 1 - j)
				twins[ids[j]].Update(vs[j])
			}
			c.UpdateAll(ids[:size], vs[:size])
			checkAll(k, c, twins)

			c.Reset()
			c.AppendN(size)
			twins = twins[:0]
			for i := 0; i < size; i++ {
				twins = append(twins, k.New())
			}
			checkAll(k, c, twins)
		}
	}
}

// TestCountStarCountsNull: COUNT(*) counts a NULL input and COUNT(M)
// does not, through Update and UpdateAll alike.
func TestCountStarCountsNull(t *testing.T) {
	for k, want := range map[Kind]float64{Count: 3, CountNonNull: 1} {
		c := k.NewColumn()
		c.AppendN(2)
		c.Update(0, Null())
		c.UpdateAll([]int32{0, 1, 0}, []float64{Null(), 5, 7})
		if got := c.Final(0); got != want {
			t.Errorf("%v over NULL, NULL, 7: %v, want %v", k, got, want)
		}
		if got := c.Final(1); got != 1 {
			t.Errorf("%v over 5: %v, want 1", k, got)
		}
	}
}

// BenchmarkColumn prices a column's life per cell: 100k cells appended
// a page at a time, then one UpdateAll over a million ids in a random
// order, for a count, a sum and a variance.
func BenchmarkColumn(b *testing.B) {
	const cells, updates = 100_000, 1_000_000
	rng := rand.New(rand.NewSource(16))
	ids, vs := make([]int32, updates), make([]float64, updates)
	for j := range ids {
		ids[j], vs[j] = int32(rng.Intn(cells)), rng.NormFloat64()
	}
	for _, k := range []Kind{Count, Sum, Var} {
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := k.NewColumn()
				for c.Len() < cells {
					c.AppendN(min(4096, cells-c.Len()))
				}
				c.UpdateAll(ids, vs)
			}
		})
	}
}
