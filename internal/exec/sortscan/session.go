package sortscan

import (
	"fmt"
	"slices"
	"time"

	"awra/internal/core"
	"awra/internal/exec/cellmap"
	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/plan"
	"awra/internal/qguard"
)

// Session evaluates a workflow over a continuous, ordered record feed
// — the natural deployment for the paper's monitoring domains, where
// network logs arrive already ordered by time. Records are pushed in
// the plan's sort-key order; measures finalize incrementally with the
// same watermark machinery as a batch run, and an optional Emit
// callback delivers each finalized region the moment no future record
// can change it. Memory stays bounded by the live frontier.
type Session struct {
	e      *engine
	basics []*node
	// codes and last hold the sort-key codes of the pushed record and
	// of the one before it; Push swaps them instead of copying.
	codes, last []int64
	rowBuf      []byte // pushed records re-encoded into the batched row layout
	closed      bool
	t0          time.Time
	rec         *obs.Recorder
	span        *obs.Span
}

// EmitFunc receives finalized measure values as they flush. The key
// belongs to the measure's codec (resolve names via the workflow).
type EmitFunc func(measure string, key model.Key, value float64)

// SessionOptions configures a streaming session.
type SessionOptions struct {
	// Emit, if non-nil, is invoked for every finalized region of every
	// non-hidden measure, in flush order.
	Emit EmitFunc
	// Recorder, if non-nil, receives the session's scan span and
	// engine metrics (published at Close, once).
	Recorder *obs.Recorder
	// Guard, if non-nil, makes Push fail with the guard's typed error
	// once the session's context is canceled or a budget trips.
	Guard *qguard.Guard
}

// NewSession starts a streaming evaluation under the given plan.
func NewSession(c *core.Compiled, pl *plan.Plan, opts SessionOptions) *Session {
	e := newEngine(c, pl, false)
	e.guard = opts.Guard
	s := &Session{e: e, t0: time.Now(), rec: opts.Recorder,
		codes: make([]int64, len(pl.SortKey)), last: make([]int64, len(pl.SortKey))}
	s.span = s.rec.Start(obs.SpanScan)
	for _, n := range e.nodes {
		if n.m.Kind == core.KindBasic {
			s.basics = append(s.basics, n)
		}
	}
	e.emit = opts.Emit
	return s
}

// Push feeds one record. Records must have the schema's shape (a
// record that does not is rejected with a *scan.ShapeError) and arrive
// in the plan's sort-key order: each key part's generalized code, taken
// in turn, must not fall below the previous record's. That is all the
// watermarks compare, so records that tie on the key may come in any
// order.
func (s *Session) Push(rec *model.Record) error {
	e := s.e
	if s.closed {
		return fmt.Errorf("sortscan: push on closed session")
	}
	if len(rec.Dims) != e.numDims || len(rec.Ms) != e.numMeasures {
		return &scan.ShapeError{Index: int(e.stats.Records), Dims: len(rec.Dims), Measures: len(rec.Ms),
			WantDims: e.numDims, WantMeasures: e.numMeasures}
	}
	if err := s.checkOrder(rec); err != nil {
		return err
	}
	e.stats.Records++
	if e.stats.Records&255 == 0 {
		if err := e.checkGuard(); err != nil {
			return err
		}
	}
	// Encode into the batched row layout so streaming shares the batch
	// engines' byte-level hot path exactly.
	if s.rowBuf == nil {
		s.rowBuf = make([]byte, 8*(e.numDims+e.numMeasures))
	}
	rows := [1]scan.Record{scan.EncodeRow(s.rowBuf, rec)}
	return e.scanRows(s.basics, nil, rows[:])
}

// checkOrder compares the record's sort-key codes with the previous
// record's, and on success keeps them as the new previous.
func (s *Session) checkOrder(rec *model.Record) error {
	key, sch := s.e.pl.SortKey, s.e.c.Schema
	for j, p := range key {
		s.codes[j] = sch.Dim(p.Dim).Up(0, p.Lvl, rec.Dims[p.Dim])
	}
	if s.e.stats.Records > 0 && slices.Compare(s.codes, s.last) < 0 {
		return fmt.Errorf("sortscan: record %d out of order (violates %s)",
			s.e.stats.Records, key.String(sch))
	}
	s.codes, s.last = s.last, s.codes
	return nil
}

// Records reports how many records have been pushed.
func (s *Session) Records() int64 { return s.e.stats.Records }

// LiveCells reports the current number of live hash entries across
// all measures — the streaming frontier.
func (s *Session) LiveCells() int64 { return s.e.live }

// Close flushes every remaining cell and returns the complete result.
func (s *Session) Close() (*scan.Result, error) {
	if s.closed {
		return nil, fmt.Errorf("sortscan: session closed twice")
	}
	s.closed = true
	defer s.span.End()
	for _, n := range s.e.nodes {
		if err := s.e.finalizeNode(n, true); err != nil {
			return nil, err
		}
	}
	s.span.SetAttr("records", fmt.Sprint(s.e.stats.Records))
	s.span.End()
	s.e.stats.ScanTime = time.Since(s.t0)
	s.e.finish()
	res := s.e.result()
	s.e.release()
	res.Stats.Publish(s.rec)
	return res, nil
}

// newEngine builds the runtime node graph (shared by batch runs and
// sessions).
func newEngine(c *core.Compiled, pl *plan.Plan, noEarlyFlush bool) *engine {
	e := &engine{c: c, pl: pl, noEarlyFlush: noEarlyFlush}
	e.numDims = c.Schema.NumDims()
	e.numMeasures = c.Schema.NumMeasures()
	e.nodes = make([]*node, len(c.Measures))
	for i, m := range c.Measures {
		n := &node{
			idx:         i,
			m:           m,
			pl:          &pl.Nodes[i],
			tab:         cellmap.New(m.Codec.KeyBytes()),
			lastCellIdx: -1,
			baseArc:     -1,
			out:         core.NewTable(c.Schema, m.Gran),
			ns:          obs.NodeStats{Node: m.Name, EstCells: pl.Nodes[i].EstCells},
		}
		n.srcArc = make([]int, len(m.Sources))
		for _, a := range pl.Nodes[i].Arcs {
			as := arcState{pl: a, cellParts: compileProjection(a.CmpKey, m.Codec), th: make([]int64, len(a.CmpKey))}
			if a.From >= 0 {
				as.srcParts = compileProjection(a.CmpKey, c.Measures[a.From].Codec)
			}
			n.arcs = append(n.arcs, as)
		}
		n.outParts = compileProjection(n.pl.OutOrder, m.Codec)
		ai := 0
		if m.Kind == core.KindBasic {
			n.srcArc = nil
		} else {
			for si := range m.Sources {
				n.srcArc[si] = ai
				ai++
			}
			if m.Base >= 0 && !slices.Contains(m.Sources, m.Base) {
				n.baseArc = ai
			}
		}
		// Cell state slabs by kind; all start empty and grow with the
		// cells, so a node of a small collection stays small.
		switch m.Kind {
		case core.KindBasic, core.KindRollup:
			n.col = m.Agg.NewColumn()
		case core.KindSibling:
			n.col = m.Agg.NewColumn()
			n.tracksBase = true
		case core.KindFromParent:
			n.parentVals = make(map[model.Key]float64)
			n.parentCol = m.Agg.NewColumn()
			n.tracksBase = true
		case core.KindCombine:
			n.tracksBase = true
		}
		e.nodes[i] = n
	}
	for i, m := range c.Measures {
		for si, src := range m.Sources {
			e.nodes[src].deps = append(e.nodes[src].deps, depEdge{node: i, role: si})
		}
		if m.Base >= 0 && !slices.Contains(m.Sources, m.Base) {
			e.nodes[m.Base].deps = append(e.nodes[m.Base].deps, depEdge{node: i, role: -1})
		}
	}
	// Shared code columns: one per (dimension, level) mapping the basic
	// nodes need — watermark components and cell granularities — so the
	// scan maps each record exactly once.
	e.codes = scan.NewCodeCols(c.Schema, scanStride)
	for _, n := range e.nodes {
		if n.m.Kind != core.KindBasic {
			continue
		}
		if len(n.arcs) > 0 {
			cmp := n.arcs[0].pl.CmpKey
			n.wmIdx = make([]int, len(cmp))
			for j, p := range cmp {
				n.wmIdx[j] = e.codes.Add(p.Dim, p.Lvl)
			}
		}
		for d := 0; d < e.numDims; d++ {
			if n.m.Gran[d] == c.Schema.Dim(d).ALL() {
				continue
			}
			n.cellIdx = append(n.cellIdx, e.codes.Add(d, n.m.Gran[d]))
		}
		n.keyBuf = make([]byte, 0, 8*len(n.cellIdx))
		if n.m.Filter != nil {
			e.needRec = true
		}
	}
	e.cpVals = make([]int64, e.codes.Len())
	for j := range e.cpVals {
		// Sentinel outside any code space, so the first record reads as
		// "changed" on every component.
		e.cpVals[j] = int64(-1) << 62
	}
	e.cpChanged = make([]bool, e.codes.Len())
	e.entryDims = make([]int64, e.numDims)
	if e.needRec {
		e.frec = model.Record{Dims: make([]int64, e.numDims), Ms: make([]float64, e.numMeasures)}
	}
	return e
}
