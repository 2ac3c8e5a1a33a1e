package agg

import "fmt"

// Column is the aggregate state of one measure over a dense range of
// cells 0..Len()-1 — the hash engines' per-measure state, indexed by
// cell id. The distributive and algebraic kinds (Gray et al.'s
// classes), whose state is a fixed number of registers, live in one
// paged slab of the very structs Kind.New boxes, so a cell costs no
// heap object and an update is a direct call on a slab element. The
// holistic kinds, whose state grows with the input, fall back to one
// boxed Aggregator per cell. Either way a cell behaves bit for bit as
// the Aggregator Kind.New returns.
type Column struct {
	kind  Kind
	fresh Aggregator // Kind.New(): the state every cell starts from
	n     int

	counts  slab[countAgg]
	countms slab[countNonNullAgg]
	sums    slab[sumAgg]
	minmaxs slab[minmaxAgg]
	avgs    slab[avgAgg]
	vars    slab[varAgg]
	ends    slab[firstLastAgg]
	boxed   slab[Aggregator]
}

// slab holds cell i at page i/pageCells, index i%pageCells. Page 0
// starts at firstCells cells and doubles up to a full page; every later
// page is allocated full, so a cell outside a small page 0 is never
// copied, and a pointer to it stays valid across Append. Keep and Reset
// keep the pages.
type slab[T any] [][]T

const (
	pageShift  = 12
	pageCells  = 1 << pageShift
	firstCells = 16 // page 0's first size, so a small column stays small
)

func (s slab[T]) at(i int32) *T { return &s[i>>pageShift][i&(pageCells-1)] }

// fill sets cells from..from+n-1 to v, adding room as it goes.
func (s *slab[T]) fill(from, n int, v T) {
	for end := from + n; from < end; {
		p, off := from>>pageShift, from&(pageCells-1)
		if p == len(*s) {
			*s = append(*s, nil)
		}
		page := (*s)[p]
		if off == len(page) { // a new page, or page 0 below full size
			size := pageCells
			if p == 0 {
				size = min(max(2*len(page), firstCells, end), pageCells)
			}
			grown := make([]T, size)
			copy(grown, page)
			(*s)[p], page = grown, grown
		}
		run := page[off:min(len(page), off+end-from)]
		for i := range run {
			run[i] = v
		}
		from += len(run)
	}
}

// keep moves cell ids[j] to cell j for ascending ids; another kind's
// empty slab stays empty.
func (s slab[T]) keep(ids []int32) {
	if len(s) == 0 {
		return
	}
	for j, i := range ids {
		*s.at(int32(j)) = *s.at(i)
	}
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

// AppendN adds n cells in the kind's initial state, ids Len()..Len()+n-1,
// a page at a time: no cell already in a full page moves.
func (c *Column) AppendN(n int) {
	switch f := c.fresh.(type) {
	case *countAgg:
		c.counts.fill(c.n, n, *f)
	case *countNonNullAgg:
		c.countms.fill(c.n, n, *f)
	case *sumAgg:
		c.sums.fill(c.n, n, *f)
	case *minmaxAgg:
		c.minmaxs.fill(c.n, n, *f)
	case *avgAgg:
		c.avgs.fill(c.n, n, *f)
	case *varAgg:
		c.vars.fill(c.n, n, *f)
	case *firstLastAgg:
		c.ends.fill(c.n, n, *f)
	case zeroAgg:
		// stateless: every cell is the one zero-size value
	default:
		c.boxed.fill(c.n, n, nil)
		for i := c.n; i < c.n+n; i++ {
			*c.boxed.at(int32(i)) = c.kind.New()
		}
	}
	c.n += n
}

// cell returns cell i's state machine: a pointer into the slab or the
// boxed fallback.
func (c *Column) cell(i int32) Aggregator {
	switch c.fresh.(type) {
	case *countAgg:
		return c.counts.at(i)
	case *countNonNullAgg:
		return c.countms.at(i)
	case *sumAgg:
		return c.sums.at(i)
	case *minmaxAgg:
		return c.minmaxs.at(i)
	case *avgAgg:
		return c.avgs.at(i)
	case *varAgg:
		return c.vars.at(i)
	case *firstLastAgg:
		return c.ends.at(i)
	case zeroAgg:
		return c.fresh
	}
	return *c.boxed.at(i)
}

// Update absorbs one input value into cell i and returns by how much
// the cell's Bytes grew — zero for every fixed-width kind — so a
// caller that accounts memory pays for it on holistic columns only.
func (c *Column) Update(i int32, v float64) int {
	switch c.kind {
	case Count:
		c.counts.at(i).n++
	case CountNonNull:
		c.countms.at(i).Update(v)
	case Sum:
		c.sums.at(i).Update(v)
	case Min, Max:
		c.minmaxs.at(i).Update(v)
	case Avg:
		c.avgs.at(i).Update(v)
	case Var, StdDev:
		c.vars.at(i).Update(v)
	case First, Last:
		c.ends.at(i).Update(v)
	case ConstZero:
	default:
		a := *c.boxed.at(i)
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
	case Count:
		for _, i := range ids {
			c.counts.at(i).n++
		}
	case CountNonNull:
		for j, i := range ids {
			c.countms.at(i).Update(vs[j])
		}
	case Sum:
		for j, i := range ids {
			c.sums.at(i).Update(vs[j])
		}
	case Min, Max:
		for j, i := range ids {
			c.minmaxs.at(i).Update(vs[j])
		}
	case Avg:
		for j, i := range ids {
			c.avgs.at(i).Update(vs[j])
		}
	case Var, StdDev:
		for j, i := range ids {
			c.vars.at(i).Update(vs[j])
		}
	case First, Last:
		for j, i := range ids {
			c.ends.at(i).Update(vs[j])
		}
	case ConstZero:
	default:
		grew := 0
		for j, i := range ids {
			a := *c.boxed.at(i)
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
// all at once; the slabs keep their pages.
func (c *Column) Keep(ids []int32) {
	c.counts.keep(ids)
	c.countms.keep(ids)
	c.sums.keep(ids)
	c.minmaxs.keep(ids)
	c.avgs.keep(ids)
	c.vars.keep(ids)
	c.ends.keep(ids)
	c.boxed.keep(ids)
	c.dropBoxed(len(ids))
	c.n = len(ids)
}

// dropBoxed clears boxed cells from..Len-1, so the collector can take
// the objects they held.
func (c *Column) dropBoxed(from int) {
	if len(c.boxed) > 0 {
		for i := from; i < c.n; i++ {
			*c.boxed.at(int32(i)) = nil
		}
	}
}

// Reset empties the column, keeping the slabs' pages.
func (c *Column) Reset() {
	c.dropBoxed(0)
	c.n = 0
}
