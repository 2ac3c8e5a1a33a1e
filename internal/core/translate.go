package core

import (
	"fmt"

	"awra/internal/agg"
	"awra/internal/model"
)

// Translate converts a compiled workflow measure into an equivalent
// AW-RA expression (Theorem 2: every measure in an aggregation
// workflow can be expressed in AW-RA). Shared sources translate to
// shared sub-expressions, so the result is a DAG mirroring the
// workflow's computation graph.
func Translate(c *Compiled, name string) (*Expr, error) {
	i, err := c.Index(name)
	if err != nil {
		return nil, err
	}
	memo := make([]*Expr, len(c.Measures))
	return translate(c, i, memo)
}

func translate(c *Compiled, i int, memo []*Expr) (*Expr, error) {
	if memo[i] != nil {
		return memo[i], nil
	}
	m := c.Measures[i]
	srcExpr := func(j int) (*Expr, error) {
		e, err := translate(c, m.Sources[j], memo)
		if err != nil {
			return nil, err
		}
		if m.Filter != nil {
			return Select(e, *m.Filter)
		}
		return e, nil
	}
	var (
		e   *Expr
		err error
	)
	switch m.Kind {
	case KindBasic:
		in := Fact(c.Schema)
		if m.Filter != nil {
			in, err = Select(in, *m.Filter)
			if err != nil {
				return nil, err
			}
		}
		e, err = Aggregate(in, m.Gran, m.Agg, m.FactMeasure)
	case KindRollup:
		var in *Expr
		in, err = srcExpr(0)
		if err != nil {
			return nil, err
		}
		e, err = Aggregate(in, m.Gran, m.Agg, 0)
	case KindFromParent, KindSibling:
		var t, base *Expr
		t, err = srcExpr(0)
		if err != nil {
			return nil, err
		}
		base, err = translate(c, m.Base, memo)
		if err != nil {
			return nil, err
		}
		cond := MatchCond{Kind: MatchParentChild}
		if m.Kind == KindSibling {
			cond = MatchCond{Kind: MatchSibling, Windows: m.Windows}
		}
		e, err = MatchJoin(base, t, cond, m.Agg)
	case KindCombine:
		s, serr := translate(c, m.Sources[0], memo)
		if serr != nil {
			return nil, serr
		}
		ts := make([]*Expr, 0, len(m.Sources)-1)
		for _, j := range m.Sources[1:] {
			t, terr := translate(c, j, memo)
			if terr != nil {
				return nil, terr
			}
			ts = append(ts, t)
		}
		if len(ts) == 0 {
			// Single-operand combine: join the source with itself and
			// adapt fc to see only the S.M argument.
			fc := *m.Combine
			adapted := CombineFunc{
				Name: fc.Name,
				Fn:   func(v []float64) float64 { return fc.Fn(v[:1]) },
			}
			e, err = CombineJoin(s, []*Expr{s}, adapted)
		} else {
			e, err = CombineJoin(s, ts, *m.Combine)
		}
	default:
		err = fmt.Errorf("core: cannot translate measure kind %v", m.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("core: translating measure %q: %w", m.Name, err)
	}
	e.Label = m.Name
	memo[i] = e
	return e, nil
}

// ComputeComposite evaluates one composite measure given the already
// computed tables of every earlier measure in topological order. It is
// the shared in-memory semantics for the single-scan engine's phase 2
// and for the multi-pass combiner; the sort/scan engine implements the
// same semantics in streaming form and is tested against it.
//
// tables is indexed like c.Measures; entries for measures after m may
// be nil.
func ComputeComposite(c *Compiled, m *Measure, tables []*Table) (*Table, error) {
	if m.Kind == KindRollup {
		src := tables[m.Sources[0]]
		if src == nil {
			return nil, fmt.Errorf("core: source table for %q not computed", m.Name)
		}
		// Sorted key order pins the result of an aggregate that rounds or
		// ties by arrival order; the others are read once in map order,
		// with no key sort and no second lookup per key.
		each := func(yield func(model.Key, float64)) {
			for _, k := range src.SortedKeys() {
				yield(k, src.Rows[k])
			}
		}
		if m.Agg.OrderInsensitive() {
			each = func(yield func(model.Key, float64)) {
				for k, v := range src.Rows {
					yield(k, v)
				}
			}
		}
		return RollUp(c, m, each), nil
	}
	// The result is built at its final size: one row per base cell, or
	// per combine S row. A base cell's aggregate is the one cell of a
	// reused column, and the parent or neighbour keys it reads are built
	// in one reused buffer, so a cell allocates nothing of its own.
	out := NewTable(c.Schema, m.Gran)
	cell := m.Agg.NewColumn()
	var kb []byte
	switch m.Kind {
	case KindFromParent:
		src := tables[m.Sources[0]]
		base := tables[m.Base]
		if src == nil || base == nil {
			return nil, fmt.Errorf("core: inputs for %q not computed", m.Name)
		}
		keep := sourceFilter(c, m, m.Sources[0])
		out.Rows = make(map[model.Key]float64, len(base.Rows))
		for k := range base.Rows {
			cell.Reset()
			a := cell.Append()
			kb = out.Codec.AppendUpTo(kb[:0], k, src.Codec)
			if v, ok := src.Rows[model.Key(kb)]; ok && (keep == nil || keep(model.Key(kb), v)) {
				cell.Update(a, v)
			}
			out.Rows[k] = cell.Final(a)
		}
	case KindSibling:
		src := tables[m.Sources[0]]
		base := tables[m.Base]
		if src == nil || base == nil {
			return nil, fmt.Errorf("core: inputs for %q not computed", m.Name)
		}
		keep := sourceFilter(c, m, m.Sources[0])
		out.Rows = make(map[model.Key]float64, len(base.Rows))
		for k := range base.Rows {
			cell.Reset()
			a := cell.Append()
			kb = forEachNeighbor(out.Codec, k, m.Windows, kb, func(nk []byte) {
				if v, ok := src.Rows[model.Key(nk)]; ok && (keep == nil || keep(model.Key(nk), v)) {
					cell.Update(a, v)
				}
			})
			out.Rows[k] = cell.Final(a)
		}
	case KindCombine:
		s := tables[m.Sources[0]]
		if s == nil {
			return nil, fmt.Errorf("core: source table for %q not computed", m.Name)
		}
		out.Rows = make(map[model.Key]float64, len(s.Rows))
		vals := make([]float64, len(m.Sources))
		for k, sv := range s.Rows {
			vals[0] = sv
			for i, j := range m.Sources[1:] {
				t := tables[j]
				if t == nil {
					return nil, fmt.Errorf("core: source table for %q not computed", m.Name)
				}
				if v, ok := t.Rows[k]; ok {
					vals[i+1] = v
				} else {
					vals[i+1] = agg.Null()
				}
			}
			out.Rows[k] = m.Combine.Eval(vals)
		}
	default:
		return nil, fmt.Errorf("core: measure %q of kind %v is not composite", m.Name, m.Kind)
	}
	return out, nil
}

// sourceFilter returns m's WHERE clause as a test on a row of source
// measure j, or nil when m has none. Every row decodes into one buffer,
// so the test allocates nothing per row and is not safe for concurrent
// use.
func sourceFilter(c *Compiled, m *Measure, j int) func(k model.Key, v float64) bool {
	if m.Filter == nil {
		return nil
	}
	src := c.Measures[j]
	codes, ms := make([]int64, c.Schema.NumDims()), make([]float64, 1)
	return func(k model.Key, v float64) bool {
		ms[0] = v
		src.Codec.FullDecodeInto(codes, k)
		return m.Filter.Eval(codes, ms)
	}
}

// RollUp evaluates the roll-up measure m over its source measure's rows
// as each enumerates them: m's aggregate, per cell of m's granularity,
// over the source rows under it that pass m's filter. each calls yield
// once per source row. The order it does so in is the order the
// aggregate absorbs them: sorted key order is the definition, and any
// other order gives the same bits exactly when m.Agg.OrderInsensitive()
// — which is what lets an engine that still holds the source in a
// denser form than a Table's map (a key arena beside an aggregate
// column) roll it up from there.
func RollUp(c *Compiled, m *Measure, each func(yield func(k model.Key, v float64))) *Table {
	out := NewTable(c.Schema, m.Gran)
	src := c.Measures[m.Sources[0]].Codec
	keep := sourceFilter(c, m, m.Sources[0])
	// One aggregate column over the parent cells, found through a
	// reusable rolled-up key buffer: the map lookup converts the buffer
	// in place, so only a new parent allocates a key.
	groups := make(map[model.Key]int32)
	col := m.Agg.NewColumn()
	var up []byte
	each(func(k model.Key, v float64) {
		if keep != nil && !keep(k, v) {
			return
		}
		up = src.AppendUpTo(up[:0], k, out.Codec)
		id, ok := groups[model.Key(up)]
		if !ok {
			id = col.Append()
			groups[model.Key(up)] = id
		}
		col.Update(id, v)
	})
	out.Rows = make(map[model.Key]float64, len(groups))
	for k, id := range groups {
		out.Rows[k] = col.Final(id)
	}
	return out
}
