// Package plan builds streaming aggregation plans (Section 5.2-5.3 of
// the paper): given a compiled workflow and the dataset's sort key, it
// derives for every measure node the order and slack of each incoming
// update stream (the algorithm of Table 6), the node's output order,
// and an estimate of the node's live hash-table footprint. The
// sort/scan engine executes these plans; the optimizer searches sort
// keys by comparing their estimated footprints.
//
// Orders follow Proposition 2: every stream is ordered by a (possibly
// truncated, possibly coarsened) prefix of the dataset sort key's
// attribute sequence. Slack is realized as per-arc "comparable keys"
// with conservative watermark shifts:
//
//   - Each arc gets a comparable key CmpKey — the longest prefix of the
//     incoming stream's order that both the node's entries and the
//     stream's watermark can be generalized to. When an entry is
//     coarser than a stream-order part, the part is coarsened to the
//     entry's level and the key is truncated there (comparison beyond a
//     coarsened part is unsound, which is Table 6's early RETURN).
//   - A sibling window with Hi > 0 means the stream can still update
//     cells up to Hi code units behind it (the paper's slack): the
//     watermark is shifted down by ceil(Hi / minFanout) in the
//     comparable part's units — Table 6's card() division, taken
//     against a lower bound so it stays conservative — and the key is
//     truncated after the shifted part.
//
// An entry is finalized when, for every incoming arc, its projection
// onto the arc's comparable key is strictly below the arc's shifted
// watermark (the watermark-array minimum of Table 8).
package plan

import (
	"fmt"

	"awra/internal/core"
	"awra/internal/model"
)

// ArcKind distinguishes the inputs of a node.
type ArcKind int

const (
	// ArcFact is the raw dataset scan feeding a basic measure.
	ArcFact ArcKind = iota
	// ArcSource carries finalized entries of a source measure.
	ArcSource
	// ArcBase carries finalized entries of the cell-providing base
	// measure (S_base), for fromparent/sibling/combine nodes.
	ArcBase
)

func (k ArcKind) String() string {
	switch k {
	case ArcFact:
		return "fact"
	case ArcSource:
		return "source"
	default:
		return "base"
	}
}

// Arc is one incoming update stream of a node, with its finalization
// metadata.
type Arc struct {
	Kind ArcKind
	// From is the producing measure's index; -1 for the fact scan.
	From int
	// Order is the incoming stream's order (the producer's output
	// order; the dataset sort key for ArcFact).
	Order model.SortKey
	// CmpKey is the comparable key: entry keys and this arc's
	// watermark are both projected onto it and compared
	// lexicographically.
	CmpKey model.SortKey
	// Shift subtracts from the watermark's code at the corresponding
	// CmpKey part before comparison (conservative slack adjustment);
	// aligned with CmpKey.
	Shift []int64
}

// Node is the streaming plan for one measure.
type Node struct {
	// Measure indexes into Compiled.Measures.
	Measure int
	Arcs    []Arc
	// OutOrder is the order of the node's finalized-entry stream: the
	// longest common identical prefix of the arcs' comparable keys.
	OutOrder model.SortKey
	// EstCells estimates the maximum number of live hash entries.
	EstCells float64
	// EstSource labels where EstCells came from: SourceAssumed,
	// SourceCollected, or SourceMeasured.
	EstSource string
}

// Plan is a streaming aggregation plan for one sort/scan pass.
type Plan struct {
	Workflow *core.Compiled
	SortKey  model.SortKey
	Nodes    []Node // indexed like Workflow.Measures
	// EstBytes estimates the plan's peak memory footprint.
	EstBytes float64
}

// Estimate-source labels, in increasing order of trust. They answer
// the question the paper's Section 6 leaves open ("the precision of
// this [card()] function will only affect the size estimation"): where
// did a node's cardinality estimate come from?
const (
	// SourceAssumed: paper-default cardinalities (1e6 per dimension).
	SourceAssumed = "assumed"
	// SourceCollected: linear-counting estimates from scanning the
	// collection (internal/stats) or caller-supplied cardinalities.
	SourceCollected = "collected"
	// SourceMeasured: true cell counts observed by a previous completed
	// run on this collection (the query-history feedback loop).
	SourceMeasured = "measured"
)

// Stats supplies cardinality estimates for footprint estimation.
type Stats struct {
	// BaseCard estimates the number of distinct base-domain values per
	// dimension appearing in the data. Zero entries default to 1e6.
	BaseCard []float64
	// Records is the (estimated) fact-table size. When positive, cell
	// estimates are additionally clamped by the expected number of
	// records per finalization group — a group cannot hold more
	// distinct cells than records.
	Records float64
	// Source labels the provenance of BaseCard/Records (SourceAssumed
	// when empty).
	Source string
	// Measured, when non-nil, returns the measured total cell count for
	// a node content signature (core.NodeSignature) on the collection
	// being planned. A hit caps the node's estimate and labels it
	// SourceMeasured.
	Measured func(sig string) (cells float64, ok bool)
}

// SourceLabel returns the stats' provenance label, defaulting to
// SourceAssumed. Nil-safe.
func (st *Stats) SourceLabel() string {
	if st == nil || st.Source == "" {
		return SourceAssumed
	}
	return st.Source
}

// DimCard estimates the number of distinct codes of dimension dim at
// the given level.
func (st *Stats) DimCard(s *model.Schema, dim int, lvl model.Level) float64 {
	base := 1e6
	if st != nil && dim < len(st.BaseCard) && st.BaseCard[dim] > 0 {
		base = st.BaseCard[dim]
	}
	c := base / s.Dim(dim).Fanout(0, lvl)
	if c < 1 {
		c = 1
	}
	return c
}

// Build derives the streaming plan for a compiled workflow under the
// given dataset sort key. It fails if the sort key is invalid; any
// workflow has a plan for any sort key (Theorem 3) — a bad key merely
// yields empty comparable keys and a large footprint estimate.
func Build(c *core.Compiled, sortKey model.SortKey, stats *Stats) (*Plan, error) {
	sk, err := sortKey.Normalize(c.Schema)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	seen := map[int]bool{}
	for _, p := range sk {
		if seen[p.Dim] {
			return nil, fmt.Errorf("plan: sort key lists dimension %q twice", c.Schema.Dim(p.Dim).Name())
		}
		seen[p.Dim] = true
	}
	pl := &Plan{Workflow: c, SortKey: sk, Nodes: make([]Node, len(c.Measures))}
	for i, m := range c.Measures {
		node := Node{Measure: i}
		switch m.Kind {
		case core.KindBasic:
			node.Arcs = append(node.Arcs, buildArc(c, m, ArcFact, -1, sk, sk))
		default:
			for _, s := range m.Sources {
				node.Arcs = append(node.Arcs, buildArc(c, m, ArcSource, s, pl.Nodes[s].OutOrder, sk))
			}
			if m.Base >= 0 && !containsIdx(m.Sources, m.Base) {
				node.Arcs = append(node.Arcs, buildArc(c, m, ArcBase, m.Base, pl.Nodes[m.Base].OutOrder, sk))
			}
		}
		node.OutOrder = commonOutOrder(node.Arcs)
		node.EstCells = estimateCells(c, m, &node, stats)
		node.EstSource = stats.SourceLabel()
		// Measured feedback: a completed run's true cell count for this
		// node on this collection caps the formula estimate. Live cells
		// never exceed the node's total output cardinality, so the cap
		// is sound; keyed by content signature so re-compiled workflows
		// (e.g. multipass sub-plans) still match.
		if stats != nil && stats.Measured != nil {
			if cells, ok := stats.Measured(c.NodeSignature(i)); ok && cells > 0 {
				if cells < node.EstCells {
					node.EstCells = cells
				}
				node.EstSource = SourceMeasured
			}
		}
		pl.Nodes[i] = node
		pl.EstBytes += node.EstCells * float64(48+m.Codec.KeyBytes())
	}
	return pl, nil
}

func containsIdx(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// buildArc computes the comparable key and watermark shifts for one
// incoming stream, per the rules in the package comment.
func buildArc(c *core.Compiled, m *core.Measure, kind ArcKind, from int, order model.SortKey, _ model.SortKey) Arc {
	arc := Arc{Kind: kind, From: from, Order: order}
	sch := c.Schema
	g := m.Gran
	window := map[int]core.Window{}
	if kind == ArcSource && m.Kind == core.KindSibling {
		for _, w := range m.Windows {
			window[w.Dim] = w
		}
	}
	for _, part := range order {
		dim := part.Dim
		gl := g[dim]
		if gl == sch.Dim(dim).ALL() {
			// Entries carry no information on this attribute; the key
			// ends here.
			break
		}
		if gl <= part.Lvl {
			// Entries refine the stream's order part: compare at the
			// stream's level.
			shift := int64(0)
			if w, ok := window[dim]; ok && w.Hi > 0 {
				mf := sch.Dim(dim).MinFanout(gl, part.Lvl)
				shift = (w.Hi + mf - 1) / mf
			}
			arc.CmpKey = append(arc.CmpKey, part)
			arc.Shift = append(arc.Shift, shift)
			if shift != 0 {
				// Lexicographic comparison beyond a shifted part is
				// unsound.
				break
			}
			continue
		}
		// Entries are coarser than the stream part: coarsen the
		// watermark to the entry level, then stop (within one coarse
		// group the stream is not ordered by later parts).
		arc.CmpKey = append(arc.CmpKey, model.SortPart{Dim: dim, Lvl: gl})
		arc.Shift = append(arc.Shift, 0)
		break
	}
	return arc
}

// commonOutOrder returns the coarsest common prefix of the arcs'
// comparable keys: per position, all arcs must order the same
// dimension, and the output takes the coarsest level among them.
// Emission batches are non-decreasing under it (an entry held back by
// arc s has a strictly larger projection under CmpKey_s than every
// already-emitted entry, and coarsening a trailing part preserves >=);
// a position where any arc was coarsened ends the key, since
// lexicographic comparison beyond a coarsened part is unsound.
func commonOutOrder(arcs []Arc) model.SortKey {
	if len(arcs) == 0 {
		return nil
	}
	var out model.SortKey
	for j := 0; ; j++ {
		var part model.SortPart
		coarsened := false
		for i, a := range arcs {
			if j >= len(a.CmpKey) {
				return out
			}
			p := a.CmpKey[j]
			if i == 0 {
				part = p
				continue
			}
			if p.Dim != part.Dim {
				return out
			}
			if p.Lvl != part.Lvl {
				coarsened = true
				if p.Lvl > part.Lvl {
					part.Lvl = p.Lvl
				}
			}
		}
		out = append(out, part)
		if coarsened {
			return out
		}
	}
}

// estimateCells estimates a node's maximum number of simultaneously
// live hash entries: for each non-ALL dimension, entries only
// accumulate within the current comparable-key prefix group, so a
// dimension covered by the node's output order contributes
// fanout(gran level -> order level); uncovered dimensions contribute
// their full cardinality at the gran level. Sibling windows widen
// their dimension by the window span (pending cells).
func estimateCells(c *core.Compiled, m *core.Measure, node *Node, stats *Stats) float64 {
	sch := c.Schema
	covered := map[int]model.Level{}
	for _, p := range node.OutOrder {
		covered[p.Dim] = p.Lvl
	}
	est := 1.0
	for dim := 0; dim < sch.NumDims(); dim++ {
		gl := m.Gran[dim]
		if gl == sch.Dim(dim).ALL() {
			continue
		}
		var f float64
		if lvl, ok := covered[dim]; ok {
			f = sch.Dim(dim).Fanout(gl, lvl)
		} else {
			f = stats.DimCard(sch, dim, gl)
		}
		if m.Kind == core.KindSibling {
			for _, w := range m.Windows {
				if w.Dim == dim {
					f += float64(w.Hi - w.Lo)
				}
			}
		}
		est *= f
	}
	// Data-aware clamp: live cells are also bounded by the records
	// that can arrive before the finalization group completes.
	if stats != nil && stats.Records > 0 {
		groupCard := 1.0
		for _, p := range node.OutOrder {
			groupCard *= stats.DimCard(sch, p.Dim, p.Lvl)
		}
		bound := stats.Records / groupCard
		if bound < 1 {
			bound = 1
		}
		if bound < est {
			est = bound
		}
	}
	return est
}
