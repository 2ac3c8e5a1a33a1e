// Package relbaseline is the relational comparator used by the
// benchmark harness, standing in for the commercial RDBMS of the
// paper's Section 7 experiments. It evaluates each output measure as
// an independent SQL-style query over the algebra translation of the
// workflow (Tables 2-4 give the SQL equivalents), in the classic
// materializing operator-at-a-time style of a relational engine:
//
//   - every measure is evaluated from scratch — shared sub-expressions
//     are recomputed per reference, which is exactly the cost shape of
//     nested sub-queries without common-subexpression reuse;
//   - every operator spools its full result to disk before the next
//     operator reads it (no inter-operator streaming);
//   - every GROUP BY — over the fact table or over an intermediate —
//     is evaluated by external sort + group scan;
//   - match and combine joins build an in-memory hash of the smaller
//     (aggregated) side and probe it while scanning the spooled outer.
//
// What this baseline deliberately does NOT do is the paper's
// contribution: sharing one sorted scan across measures and streaming
// finalized groups between operators. The relative cost of those
// choices is the experiment.
package relbaseline

import (
	"fmt"
	"os"
	"slices"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/storage"
)

// Options configures a run: the engines' option block. The recorder
// receives one "measure" span per evaluated measure (each holding that
// query's sort spans); the guard covers every operator scan, sort and
// spool.
type Options = scan.EngineOptions

// rel is a spooled relation: a record file of full-length granularity
// codes plus the single measure column M.
type rel struct {
	path  string
	gran  model.Gran
	codec *model.KeyCodec
}

type evaluator struct {
	c    *core.Compiled
	fact scan.Input
	// opts.Recorder is the current measure's recorder view.
	opts  Options
	temps []string
	// st accumulates the run's counts across operators: fact scans,
	// spools (spill events), the sorts' runs and run files, group-scan
	// records and cells, and the largest join hash.
	st obs.EngineStats
}

// Run evaluates every output measure of the workflow independently.
func Run(c *core.Compiled, in scan.Input, opts Options) (*scan.Result, error) {
	return RunMeasures(c, in, c.Outputs(), opts)
}

// RunMeasures evaluates only the named measures, one independent
// query each. Benchmarks use it to compare engines on the final
// measure of a workflow, matching the paper's single-query SQL runs.
func RunMeasures(c *core.Compiled, in scan.Input, names []string, opts Options) (*scan.Result, error) {
	opts = opts.WithDefaults()
	orec := opts.Recorder
	res := &scan.Result{Tables: make(map[string]*core.Table)}
	ev := &evaluator{c: c, fact: in, opts: opts}
	defer ev.cleanup()
	for _, name := range names {
		if err := opts.Guard.Err(); err != nil {
			return nil, err
		}
		mSpan := orec.Start(obs.SpanMeasure)
		mSpan.SetAttr("measure", name)
		ev.opts.Recorder = orec.At(mSpan)
		pre := ev.st
		tbl, err := ev.measure(name)
		mSpan.End()
		if err != nil {
			return nil, err
		}
		res.Tables[name] = tbl
		// Per-node actuals: everything this measure's operator tree did.
		cells := ev.st.CellsFinalized - pre.CellsFinalized
		ev.st.Nodes = append(ev.st.Nodes, obs.NodeStats{
			Node:           name,
			RecordsIn:      ev.st.Records - pre.Records,
			RecordsOut:     int64(len(tbl.Rows)),
			CellsCreated:   cells,
			CellsFinalized: cells,
		})
	}
	ev.st.CellsCreated = ev.st.CellsFinalized // one pass per cell: created == finalized
	res.Stats = ev.st
	return res, nil
}

// measure evaluates one output measure as its own query.
func (ev *evaluator) measure(name string) (*core.Table, error) {
	e, err := core.Translate(ev.c, name)
	if err != nil {
		return nil, fmt.Errorf("relbaseline: %w", err)
	}
	r, err := ev.eval(e)
	if err != nil {
		return nil, fmt.Errorf("relbaseline: measure %q: %w", name, err)
	}
	tbl, err := ev.load(r)
	if err != nil {
		return nil, fmt.Errorf("relbaseline: measure %q: %w", name, err)
	}
	return tbl, ev.opts.Guard.NoteResultRows(int64(len(tbl.Rows)))
}

func (ev *evaluator) cleanup() {
	for _, p := range ev.temps {
		os.Remove(p)
	}
}

// spool materializes an operator's result as a new relation file of
// full-length codes and the given number of measures: fill writes its
// rows, then the spool is closed and its rows charged to the spool
// statistic and the guard's spill-byte budget.
func (ev *evaluator) spool(tag string, measures int, fill func(w *storage.Writer) error) (string, error) {
	path := ev.opts.TempPath("rel-" + tag)
	ev.temps = append(ev.temps, path)
	nd := ev.c.Schema.NumDims()
	w, err := storage.Create(path, nd, measures)
	if err != nil {
		return "", err
	}
	ev.st.Spills++
	if err := fill(w); err != nil {
		w.Close()
		return "", err
	}
	bytes := w.Count() * int64(8*(nd+measures))
	ev.st.SpillBytes += bytes
	if err := ev.opts.Guard.NoteSpill(bytes); err != nil {
		w.Close()
		return "", err
	}
	return path, w.Close()
}

// each decodes every row of in — fact records, or a spool's one
// measure — into one record and hands it to fn.
func (ev *evaluator) each(in scan.Input, measures int, fn func(rec *model.Record) error) error {
	src, err := ev.opts.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	rec := model.Record{Dims: make([]int64, ev.c.Schema.NumDims()), Ms: make([]float64, measures)}
	for {
		batch, err := src.NextBatch()
		if err != nil || batch == nil {
			return err
		}
		for _, row := range batch {
			row.DecodeInto(rec.Dims, rec.Ms)
			if err := fn(&rec); err != nil {
				return err
			}
		}
	}
}

// keyOf builds the region key of a full-codes row.
func keyOf(codec *model.KeyCodec, s *model.Schema, gran model.Gran, codes []int64) model.Key {
	sub := make([]int64, 0, codec.Width())
	for d := 0; d < s.NumDims(); d++ {
		if gran[d] != s.Dim(d).ALL() {
			sub = append(sub, codes[d])
		}
	}
	return codec.FromCodes(sub)
}

// load reads a spooled relation into a core.Table.
func (ev *evaluator) load(r *rel) (*core.Table, error) {
	return ev.opts.ReadTable(scan.FileInput(r.path), ev.c.Schema, r.gran)
}

// loadMap reads a spooled relation into a key->value hash (the build
// side of a hash join).
func (ev *evaluator) loadMap(r *rel) (map[model.Key]float64, error) {
	tbl, err := ev.load(r)
	if err != nil {
		return nil, err
	}
	ev.st.PeakBytes = max(ev.st.PeakBytes, int64(len(tbl.Rows))*int64(tbl.Codec.KeyBytes()+24))
	return tbl.Rows, nil
}

func (ev *evaluator) eval(e *core.Expr) (*rel, error) {
	switch e.Kind {
	case core.AggExpr:
		return ev.evalAgg(e)
	case core.SelectExpr:
		return ev.evalSelect(e)
	case core.MatchJoinExpr:
		return ev.evalMatchJoin(e)
	case core.CombineJoinExpr:
		return ev.evalCombineJoin(e)
	default:
		return nil, fmt.Errorf("cannot evaluate %v as a measure table", e.Kind)
	}
}

// evalFact resolves a fact-like expression (D or sigma(D) chains) to
// the records it selects, materializing selections.
func (ev *evaluator) evalFact(e *core.Expr) (scan.Input, error) {
	if e.Kind == core.FactExpr {
		return ev.fact, nil
	}
	in, err := ev.evalFact(e.Children()[0])
	if err != nil {
		return scan.Input{}, err
	}
	ev.st.FactScans++
	path, err := ev.selectInto(in, ev.c.Schema.NumMeasures(), e.Pred)
	return scan.FileInput(path), err
}

// selectInto spools the rows of in that satisfy pred.
func (ev *evaluator) selectInto(in scan.Input, measures int, pred core.Predicate) (string, error) {
	return ev.spool("sel", measures, func(w *storage.Writer) error {
		return ev.each(in, measures, func(rec *model.Record) error {
			if pred.Eval(rec.Dims, rec.Ms) {
				return w.Write(rec)
			}
			return nil
		})
	})
}

// groupStride is how many rows a group scan takes between guard checks.
const groupStride = 256

// evalAgg is the GROUP BY of Table 2: external sort by the group key,
// then a group scan of the sorted stream, spooled to disk. The sort
// orders a group's rows by their input coordinates, then by position.
func (ev *evaluator) evalAgg(e *core.Expr) (*rel, error) {
	sch := e.Schema()
	gran := e.Gran()
	child := e.Children()[0]

	var (
		in       scan.Input
		inIsFact bool
		srcGran  model.Gran // the input's level per dimension; nil = base
	)
	if child.IsFactLike() {
		f, err := ev.evalFact(child)
		if err != nil {
			return nil, err
		}
		in, inIsFact = f, true
	} else {
		r, err := ev.eval(child)
		if err != nil {
			return nil, err
		}
		in, srcGran = scan.FileInput(r.path), r.gran
	}

	// The group key: every dimension the target granularity keeps.
	nd := sch.NumDims()
	var key model.SortKey
	for d := 0; d < nd; d++ {
		if gran[d] != sch.Dim(d).ALL() {
			key = append(key, model.SortPart{Dim: d, Lvl: gran[d]})
		}
	}
	src, sorted, err := ev.opts.SortStream(in, sch, key, srcGran)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	ev.st.Add(sorted)
	if inIsFact {
		ev.st.FactScans++
	}

	// groupCodes maps a row to its group codes at the target granularity.
	from := srcGran
	if from == nil {
		from = make(model.Gran, nd) // fact codes are at base
	}
	ga := make([]int64, nd)
	groupCodes := func(row scan.Record) {
		for d := range ga {
			ga[d] = sch.Dim(d).Up(from[d], gran[d], row.Dim(d))
		}
	}
	var (
		curKey  []int64
		curAgg  agg.Aggregator
		haveKey bool
	)
	outRec := model.Record{Dims: make([]int64, nd), Ms: make([]float64, 1)}
	outPath, err := ev.spool("agg", 1, func(w *storage.Writer) error {
		flush := func() error {
			if !haveKey {
				return nil
			}
			copy(outRec.Dims, curKey)
			outRec.Ms[0] = curAgg.Final()
			return w.Write(&outRec)
		}
		var phase obs.EngineStats
		err := ev.opts.ScanPhase(src, groupStride, nil, func(rows []scan.Record) error {
			for _, row := range rows {
				groupCodes(row)
				if !haveKey || !slices.Equal(ga, curKey) {
					if err := flush(); err != nil {
						return err
					}
					curKey = append(curKey[:0], ga...)
					curAgg = e.Agg.New()
					haveKey = true
				}
				switch {
				case inIsFact && e.FactMeasure >= 0:
					curAgg.Update(row.Measure(nd, e.FactMeasure))
				case inIsFact:
					curAgg.Update(0)
				default:
					curAgg.Update(row.Measure(nd, 0))
				}
			}
			return nil
		}, &phase)
		if !inIsFact {
			phase.Records = 0 // a spooled relation's rows are not fact records
		}
		ev.st.Add(phase)
		if err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
		ev.st.CellsFinalized += w.Count()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &rel{path: outPath, gran: gran, codec: model.NewKeyCodec(sch, gran)}, nil
}

// evalSelect filters a spooled relation into a new spool.
func (ev *evaluator) evalSelect(e *core.Expr) (*rel, error) {
	src, err := ev.eval(e.Children()[0])
	if err != nil {
		return nil, err
	}
	outPath, err := ev.selectInto(scan.FileInput(src.path), 1, e.Pred)
	if err != nil {
		return nil, err
	}
	return &rel{path: outPath, gran: src.gran, codec: src.codec}, nil
}

// evalMatchJoin is the LEFT OUTER JOIN + GROUP BY of Table 3: build a
// hash on T, probe while scanning the spooled S, spool the output.
func (ev *evaluator) evalMatchJoin(e *core.Expr) (*rel, error) {
	sch := e.Schema()
	s, err := ev.eval(e.Children()[0])
	if err != nil {
		return nil, err
	}
	t, err := ev.eval(e.Children()[1])
	if err != nil {
		return nil, err
	}

	// Build side: T, keyed for the probe.
	var tMap map[model.Key]float64
	var cpAggs map[model.Key]agg.Aggregator
	switch e.Cond.Kind {
	case core.MatchSelf, core.MatchParentChild, core.MatchSibling:
		tMap, err = ev.loadMap(t)
	case core.MatchChildParent:
		// Hash-aggregate T up to S's granularity (the output size is
		// |S|, not |T|).
		cpAggs = make(map[model.Key]agg.Aggregator)
		sCodec := model.NewKeyCodec(sch, s.gran)
		codes := make([]int64, sch.NumDims())
		err = ev.each(scan.FileInput(t.path), 1, func(rec *model.Record) error {
			for d := 0; d < sch.NumDims(); d++ {
				codes[d] = sch.Dim(d).Up(t.gran[d], s.gran[d], rec.Dims[d])
			}
			k := keyOf(sCodec, sch, s.gran, codes)
			a, ok := cpAggs[k]
			if !ok {
				a = e.Agg.New()
				cpAggs[k] = a
			}
			a.Update(rec.Ms[0])
			return nil
		})
	default:
		return nil, fmt.Errorf("unknown match kind %v", e.Cond.Kind)
	}
	if err != nil {
		return nil, err
	}

	sCodec := model.NewKeyCodec(sch, s.gran)
	tCodec := model.NewKeyCodec(sch, t.gran)
	out := model.Record{Dims: make([]int64, sch.NumDims()), Ms: make([]float64, 1)}
	codes := make([]int64, sch.NumDims())
	outPath, err := ev.spool("mj", 1, func(w *storage.Writer) error {
		return ev.each(scan.FileInput(s.path), 1, func(rec *model.Record) error {
			sk := keyOf(sCodec, sch, s.gran, rec.Dims)
			a := e.Agg.New()
			switch e.Cond.Kind {
			case core.MatchSelf:
				if v, ok := tMap[sCodec.UpTo(sk, tCodec)]; ok {
					a.Update(v)
				}
			case core.MatchParentChild:
				for d := 0; d < sch.NumDims(); d++ {
					codes[d] = sch.Dim(d).Up(s.gran[d], t.gran[d], rec.Dims[d])
				}
				if v, ok := tMap[keyOf(tCodec, sch, t.gran, codes)]; ok {
					a.Update(v)
				}
			case core.MatchChildParent:
				if ca, ok := cpAggs[sk]; ok {
					a = ca
				}
			case core.MatchSibling:
				forEachWindowKey(sCodec, sk, e.Cond.Windows, func(nk model.Key) {
					if v, ok := tMap[nk]; ok {
						a.Update(v)
					}
				})
			}
			copy(out.Dims, rec.Dims)
			out.Ms[0] = a.Final()
			return w.Write(&out)
		})
	})
	if err != nil {
		return nil, err
	}
	return &rel{path: outPath, gran: s.gran, codec: sCodec}, nil
}

func forEachWindowKey(c *model.KeyCodec, k model.Key, windows []core.Window, visit func(model.Key)) {
	var rec func(cur model.Key, i int)
	rec = func(cur model.Key, i int) {
		if i == len(windows) {
			visit(cur)
			return
		}
		w := windows[i]
		base := c.CodeAt(k, w.Dim)
		for off := w.Lo; off <= w.Hi; off++ {
			rec(c.WithCodeAt(cur, w.Dim, base+off), i+1)
		}
	}
	rec(k, 0)
}

// evalCombineJoin is the n-ary LEFT OUTER equi-join of Table 4:
// hash every T_i, scan the spooled S, spool the output.
func (ev *evaluator) evalCombineJoin(e *core.Expr) (*rel, error) {
	sch := e.Schema()
	children := e.Children()
	s, err := ev.eval(children[0])
	if err != nil {
		return nil, err
	}
	tMaps := make([]map[model.Key]float64, len(children)-1)
	for i, ch := range children[1:] {
		// No memoization: each reference re-evaluates, like a nested
		// sub-query repeated in the SQL text.
		tr, err := ev.eval(ch)
		if err != nil {
			return nil, err
		}
		tMaps[i], err = ev.loadMap(tr)
		if err != nil {
			return nil, err
		}
	}
	sCodec := model.NewKeyCodec(sch, s.gran)
	out := model.Record{Dims: make([]int64, sch.NumDims()), Ms: make([]float64, 1)}
	vals := make([]float64, len(children))
	outPath, err := ev.spool("cj", 1, func(w *storage.Writer) error {
		return ev.each(scan.FileInput(s.path), 1, func(rec *model.Record) error {
			sk := keyOf(sCodec, sch, s.gran, rec.Dims)
			vals[0] = rec.Ms[0]
			for i, m := range tMaps {
				if v, ok := m[sk]; ok {
					vals[i+1] = v
				} else {
					vals[i+1] = agg.Null()
				}
			}
			copy(out.Dims, rec.Dims)
			out.Ms[0] = e.Combine.Eval(vals)
			return w.Write(&out)
		})
	})
	if err != nil {
		return nil, err
	}
	return &rel{path: outPath, gran: s.gran, codec: sCodec}, nil
}
