package agg

import "fmt"

// Column is the aggregate state of one measure over a dense range of
// cells 0..Len()-1 — the hash engines' per-measure state, indexed by
// cell id. The distributive and algebraic kinds (Gray et al.'s
// classes), whose state is a fixed number of registers, live in one
// typed slab of the very structs Kind.New boxes, so a cell costs no
// heap object and an update is a direct call on a slab element. The
// holistic kinds, whose state grows with the input, fall back to one
// boxed Aggregator per cell. Either way a cell behaves bit for bit as
// the Aggregator Kind.New returns.
type Column struct {
	kind  Kind
	fresh Aggregator // Kind.New(): the state every cell starts from
	n     int

	counts  []countAgg
	sums    []sumAgg
	minmaxs []minmaxAgg
	avgs    []avgAgg
	vars    []varAgg
	ends    []firstLastAgg
	boxed   []Aggregator
}

// NewColumn returns an empty column of the kind's aggregate.
func (k Kind) NewColumn() *Column { return &Column{kind: k, fresh: k.New()} }

// Len returns the number of cells.
func (c *Column) Len() int { return c.n }

// Append adds a cell in the kind's initial state and returns its id,
// the previous Len.
func (c *Column) Append() int32 {
	c.AppendN(1)
	return int32(c.n - 1)
}

// AppendN adds n cells in the kind's initial state, ids Len()..Len()+n-1.
// A full slab doubles, so a column grown cell by cell to any size is
// allocated and copied about twice over, not append's five times.
func (c *Column) AppendN(n int) {
	switch f := c.fresh.(type) {
	case *countAgg:
		c.counts = appendN(c.counts, n, *f)
	case *sumAgg:
		c.sums = appendN(c.sums, n, *f)
	case *minmaxAgg:
		c.minmaxs = appendN(c.minmaxs, n, *f)
	case *avgAgg:
		c.avgs = appendN(c.avgs, n, *f)
	case *varAgg:
		c.vars = appendN(c.vars, n, *f)
	case *firstLastAgg:
		c.ends = appendN(c.ends, n, *f)
	case zeroAgg:
		// stateless: every cell is the one zero-size value
	default:
		c.boxed = appendN(c.boxed, n, nil)
		for i := c.n; i < c.n+n; i++ {
			c.boxed[i] = c.kind.New()
		}
	}
	c.n += n
}

// appendN appends n copies of v to s, doubling a full slab.
func appendN[T any](s []T, n int, v T) []T {
	end := len(s) + n
	if end > cap(s) {
		grown := make([]T, len(s), max(2*cap(s), end, 8))
		copy(grown, s)
		s = grown
	}
	s = s[:end]
	for i := end - n; i < end; i++ {
		s[i] = v
	}
	return s
}

// cell returns cell i's state machine: a pointer into the slab (valid
// until the next Append) or the boxed fallback.
func (c *Column) cell(i int32) Aggregator {
	switch c.fresh.(type) {
	case *countAgg:
		return &c.counts[i]
	case *sumAgg:
		return &c.sums[i]
	case *minmaxAgg:
		return &c.minmaxs[i]
	case *avgAgg:
		return &c.avgs[i]
	case *varAgg:
		return &c.vars[i]
	case *firstLastAgg:
		return &c.ends[i]
	case zeroAgg:
		return c.fresh
	}
	return c.boxed[i]
}

// Update absorbs one input value into cell i and returns by how much
// the cell's Bytes grew — zero for every fixed-width kind — so a
// caller that accounts memory pays for it on holistic columns only.
func (c *Column) Update(i int32, v float64) int {
	switch c.kind {
	case Count, CountNonNull:
		c.counts[i].Update(v)
	case Sum:
		c.sums[i].Update(v)
	case Min, Max:
		c.minmaxs[i].Update(v)
	case Avg:
		c.avgs[i].Update(v)
	case Var, StdDev:
		c.vars[i].Update(v)
	case First, Last:
		c.ends[i].Update(v)
	case ConstZero:
	default:
		a := c.boxed[i]
		before := a.Bytes()
		a.Update(v)
		return a.Bytes() - before
	}
	return 0
}

// UpdateAll is Update(ids[j], vs[j]) for every j in order — so cells
// named more than once absorb their values in the order given — behind
// one switch on the kind. It returns the total growth in Bytes.
func (c *Column) UpdateAll(ids []int32, vs []float64) int {
	vs = vs[:len(ids)]
	switch c.kind {
	case Count, CountNonNull:
		for j, i := range ids {
			c.counts[i].Update(vs[j])
		}
	case Sum:
		for j, i := range ids {
			c.sums[i].Update(vs[j])
		}
	case Min, Max:
		for j, i := range ids {
			c.minmaxs[i].Update(vs[j])
		}
	case Avg:
		for j, i := range ids {
			c.avgs[i].Update(vs[j])
		}
	case Var, StdDev:
		for j, i := range ids {
			c.vars[i].Update(vs[j])
		}
	case First, Last:
		for j, i := range ids {
			c.ends[i].Update(vs[j])
		}
	case ConstZero:
	default:
		grew := 0
		for j, i := range ids {
			a := c.boxed[i]
			before := a.Bytes()
			a.Update(vs[j])
			grew += a.Bytes() - before
		}
		return grew
	}
	return 0
}

// Final returns cell i's aggregate.
func (c *Column) Final(i int32) float64 { return c.cell(i).Final() }

// State serializes cell i as Aggregator.State does.
func (c *Column) State(i int32) []float64 { return c.cell(i).State() }

// Bytes estimates cell i's footprint as Aggregator.Bytes does.
func (c *Column) Bytes(i int32) int { return c.cell(i).Bytes() }

// Restore appends a cell holding a serialized State, as Kind.Restore
// would build it, and returns its id.
func (c *Column) Restore(state []float64) (int32, error) {
	i := c.Append()
	if err := loadState(c.cell(i), state); err != nil {
		return i, fmt.Errorf("agg: restoring %v: %w", c.kind, err)
	}
	return i, nil
}

// Merge absorbs a serialized State of the same kind into cell i, as
// Aggregator.Merge absorbs the aggregator it restores to.
func (c *Column) Merge(i int32, state []float64) error {
	o, err := c.kind.Restore(state)
	if err != nil {
		return err
	}
	c.cell(i).Merge(o)
	return nil
}

// Keep compacts the column to the cells ids names, in ascending order:
// cell ids[j] becomes cell j and Len becomes len(ids). It is the
// survivor rebuild of a watermark flush, which retires the other cells
// all at once; the slabs keep their capacity.
func (c *Column) Keep(ids []int32) {
	c.counts, c.sums, c.minmaxs = keep(c.counts, ids), keep(c.sums, ids), keep(c.minmaxs, ids)
	c.avgs, c.vars, c.ends = keep(c.avgs, ids), keep(c.vars, ids), keep(c.ends, ids)
	if c.boxed != nil {
		retired := c.boxed[len(ids):]
		c.boxed = keep(c.boxed, ids)
		clear(retired) // drop the moved and retired objects' old slots
	}
	c.n = len(ids)
}

// keep moves s[ids[j]] to s[j] for ascending ids; a nil slab (another
// kind's) stays nil.
func keep[T any](s []T, ids []int32) []T {
	if s == nil {
		return nil
	}
	for j, i := range ids {
		s[j] = s[i]
	}
	return s[:len(ids)]
}

// Reset empties the column, keeping the slabs' capacity.
func (c *Column) Reset() {
	c.counts, c.sums, c.minmaxs = c.counts[:0], c.sums[:0], c.minmaxs[:0]
	c.avgs, c.vars, c.ends = c.avgs[:0], c.vars[:0], c.ends[:0]
	clear(c.boxed) // drop the per-cell objects for the collector
	c.boxed = c.boxed[:0]
	c.n = 0
}
