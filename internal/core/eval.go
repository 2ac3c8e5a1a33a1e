package core

import (
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"awra/internal/agg"
	"awra/internal/model"
)

// Table is a materialized measure table <G, M>: the result of
// evaluating a non-fact AW-RA expression. It doubles as the per-measure
// result type of every engine, which is what makes cross-engine
// equivalence checks direct map comparisons.
type Table struct {
	Gran  model.Gran
	Codec *model.KeyCodec
	Rows  map[model.Key]float64
}

// NewTable allocates an empty table for a region set.
func NewTable(s *model.Schema, g model.Gran) *Table {
	return &Table{Gran: g.Clone(), Codec: model.NewKeyCodec(s, g), Rows: make(map[model.Key]float64)}
}

// SortedKeys returns the table's region keys in encoded order.
func (t *Table) SortedKeys() []model.Key {
	keys := make([]model.Key, 0, len(t.Rows))
	for k := range t.Rows {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// WriteCSV writes the table as CSV: one column per non-ALL dimension
// (formatted codes) followed by the measure value. Rows appear in key
// order. NULL measures render as empty fields.
func (t *Table) WriteCSV(w io.Writer, measureName string) error {
	cw := csv.NewWriter(w)
	sch := t.Codec.Schema()
	var header []string
	for d := 0; d < sch.NumDims(); d++ {
		if t.Gran[d] != sch.Dim(d).ALL() {
			header = append(header, sch.Dim(d).Name())
		}
	}
	if measureName == "" {
		measureName = "M"
	}
	header = append(header, measureName)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, k := range t.SortedKeys() {
		codes := t.Codec.Decode(k)
		i := 0
		for d := 0; d < sch.NumDims(); d++ {
			if t.Gran[d] != sch.Dim(d).ALL() {
				row[i] = sch.Dim(d).FormatCode(t.Gran[d], codes[i])
				i++
			}
		}
		v := t.Rows[k]
		if agg.IsNull(v) {
			row[i] = ""
		} else {
			row[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Equal reports whether two tables have identical keys and values
// (NULLs compare equal to NULLs; values must match within eps).
func (t *Table) Equal(o *Table, eps float64) bool {
	if len(t.Rows) != len(o.Rows) {
		return false
	}
	for k, v := range t.Rows {
		ov, ok := o.Rows[k]
		if !ok {
			return false
		}
		if agg.IsNull(v) != agg.IsNull(ov) {
			return false
		}
		if !agg.IsNull(v) {
			d := v - ov
			if d < -eps || d > eps {
				return false
			}
		}
	}
	return true
}

// Eval evaluates an AW-RA expression DAG over an in-memory fact table
// using the direct SQL semantics of Tables 2-4 (nested loops and hash
// lookups, no streaming). It is deliberately simple: the engines are
// validated against it, so it must be obviously correct rather than
// fast. Shared sub-expressions are evaluated once.
func Eval(e *Expr, recs []model.Record) (*Table, error) {
	ev := &evaluator{recs: recs, memo: make(map[*Expr]*Table), factMemo: make(map[*Expr][]model.Record)}
	if e.IsFactLike() {
		return nil, fmt.Errorf("core: Eval of D or sigma(D) does not denote a measure table")
	}
	return ev.eval(e)
}

type evaluator struct {
	recs     []model.Record
	memo     map[*Expr]*Table
	factMemo map[*Expr][]model.Record
}

// evalFact resolves a fact-like expression (D or nested sigma(D)) to
// the surviving records.
func (ev *evaluator) evalFact(e *Expr) ([]model.Record, error) {
	if rs, ok := ev.factMemo[e]; ok {
		return rs, nil
	}
	var out []model.Record
	switch e.Kind {
	case FactExpr:
		out = ev.recs
	case SelectExpr:
		in, err := ev.evalFact(e.children[0])
		if err != nil {
			return nil, err
		}
		for i := range in {
			if e.Pred.Eval(in[i].Dims, in[i].Ms) {
				out = append(out, in[i])
			}
		}
	default:
		return nil, fmt.Errorf("core: expression %v is not fact-like", e.Kind)
	}
	ev.factMemo[e] = out
	return out, nil
}

func (ev *evaluator) eval(e *Expr) (*Table, error) {
	if t, ok := ev.memo[e]; ok {
		return t, nil
	}
	var (
		t   *Table
		err error
	)
	switch e.Kind {
	case AggExpr:
		t, err = ev.evalAgg(e)
	case SelectExpr:
		t, err = ev.evalSelect(e)
	case MatchJoinExpr:
		t, err = ev.evalMatchJoin(e)
	case CombineJoinExpr:
		t, err = ev.evalCombineJoin(e)
	default:
		err = fmt.Errorf("core: cannot evaluate %v as a measure table", e.Kind)
	}
	if err != nil {
		return nil, err
	}
	ev.memo[e] = t
	return t, nil
}

func (ev *evaluator) evalAgg(e *Expr) (*Table, error) {
	in := e.children[0]
	out := NewTable(e.schema, e.gran)
	groups := make(map[model.Key]agg.Aggregator)
	update := func(k model.Key, v float64) {
		a, ok := groups[k]
		if !ok {
			a = e.Agg.New()
			groups[k] = a
		}
		a.Update(v)
	}
	if in.IsFactLike() {
		recs, err := ev.evalFact(in)
		if err != nil {
			return nil, err
		}
		for i := range recs {
			k := out.Codec.FromBase(recs[i].Dims)
			if e.FactMeasure >= 0 {
				update(k, recs[i].Ms[e.FactMeasure])
			} else {
				update(k, 0)
			}
		}
	} else {
		src, err := ev.eval(in)
		if err != nil {
			return nil, err
		}
		for _, k := range src.SortedKeys() { // deterministic input order
			update(src.Codec.UpTo(k, out.Codec), src.Rows[k])
		}
	}
	for k, a := range groups {
		out.Rows[k] = a.Final()
	}
	return out, nil
}

func (ev *evaluator) evalSelect(e *Expr) (*Table, error) {
	src, err := ev.eval(e.children[0])
	if err != nil {
		return nil, err
	}
	out := NewTable(e.schema, e.gran)
	ms := make([]float64, 1)
	for k, v := range src.Rows {
		ms[0] = v
		if e.Pred.Eval(src.Codec.FullDecode(k), ms) {
			out.Rows[k] = v
		}
	}
	return out, nil
}

func (ev *evaluator) evalMatchJoin(e *Expr) (*Table, error) {
	s, err := ev.eval(e.children[0])
	if err != nil {
		return nil, err
	}
	t, err := ev.eval(e.children[1])
	if err != nil {
		return nil, err
	}
	out := NewTable(e.schema, e.gran)
	switch e.Cond.Kind {
	case MatchSelf:
		for k := range s.Rows {
			a := e.Agg.New()
			if v, ok := t.Rows[k]; ok {
				a.Update(v)
			}
			out.Rows[k] = a.Final()
		}
	case MatchParentChild:
		for k := range s.Rows {
			a := e.Agg.New()
			if v, ok := t.Rows[s.Codec.UpTo(k, t.Codec)]; ok {
				a.Update(v)
			}
			out.Rows[k] = a.Final()
		}
	case MatchChildParent:
		aggs := make(map[model.Key]agg.Aggregator, len(s.Rows))
		for k := range s.Rows {
			aggs[k] = e.Agg.New()
		}
		for _, tk := range t.SortedKeys() {
			up := t.Codec.UpTo(tk, s.Codec)
			if a, ok := aggs[up]; ok {
				a.Update(t.Rows[tk])
			}
		}
		for k, a := range aggs {
			out.Rows[k] = a.Final()
		}
	case MatchSibling:
		var nb []byte
		for k := range s.Rows {
			a := e.Agg.New()
			nb = forEachNeighbor(s.Codec, k, e.Cond.Windows, nb, func(nk []byte) {
				if v, ok := t.Rows[model.Key(nk)]; ok {
					a.Update(v)
				}
			})
			out.Rows[k] = a.Final()
		}
	default:
		return nil, fmt.Errorf("core: unknown match kind %v", e.Cond.Kind)
	}
	return out, nil
}

// forEachNeighbor enumerates the keys in the window product around k in
// ascending offset order (last window varies fastest). Every key is
// built in buf, which it returns for reuse: a visited key is valid only
// during its visit.
func forEachNeighbor(c *model.KeyCodec, k model.Key, windows []Window, buf []byte, visit func(nk []byte)) []byte {
	buf = append(buf[:0], k...)
	neighbors(c, k, windows, buf, visit)
	return buf
}

// neighbors visits buf with each offset of windows[0] patched into it in
// turn, and recurses into the remaining windows for each.
func neighbors(c *model.KeyCodec, k model.Key, windows []Window, buf []byte, visit func([]byte)) {
	if len(windows) == 0 {
		visit(buf)
		return
	}
	w := windows[0]
	at := 8 * c.DimPos(w.Dim)
	base := c.CodeAt(k, w.Dim)
	for off := w.Lo; off <= w.Hi; off++ {
		binary.BigEndian.PutUint64(buf[at:], uint64(base+off)^(1<<63))
		neighbors(c, k, windows[1:], buf, visit)
	}
}

func (ev *evaluator) evalCombineJoin(e *Expr) (*Table, error) {
	s, err := ev.eval(e.children[0])
	if err != nil {
		return nil, err
	}
	ts := make([]*Table, len(e.children)-1)
	for i, c := range e.children[1:] {
		ts[i], err = ev.eval(c)
		if err != nil {
			return nil, err
		}
	}
	out := NewTable(e.schema, e.gran)
	vals := make([]float64, len(e.children))
	for k, sv := range s.Rows {
		vals[0] = sv
		for i, t := range ts {
			if v, ok := t.Rows[k]; ok {
				vals[i+1] = v
			} else {
				vals[i+1] = agg.Null()
			}
		}
		out.Rows[k] = e.Combine.Eval(vals)
	}
	return out, nil
}
