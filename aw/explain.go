package aw

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"awra/internal/exec/multipass"
	"awra/internal/opt"
	"awra/internal/plan"
)

// Profile is the EXPLAIN / EXPLAIN ANALYZE view of a query: the
// workflow DAG annotated with optimizer estimates and — after an
// analyzed run — the per-node actuals the engines published. Render it
// with String (the tree awquery prints) or serialize it as JSON.
type Profile struct {
	// Engine is the evaluation engine ("sortscan", "shardscan", ...).
	// For a plain Explain of EngineAuto it is the engine the Section 6
	// decision procedure predicts; for ExplainAnalyzeCompiled it is the engine
	// that actually ran (the auto decision, plus any multipass fallback).
	Engine string `json:"engine"`
	// Strategy is the optimizer's Section 6 decision ("singlescan",
	// "sortscan", "multipass"); empty when the engine was forced.
	Strategy string `json:"strategy,omitempty"`
	// SortKey is the chosen (or overridden) sort order, when the engine
	// sorts.
	SortKey string `json:"sort_key,omitempty"`
	// EstBytes is the streaming plan's estimated peak footprint.
	EstBytes float64 `json:"est_bytes,omitempty"`
	// SingleScanBytes / SortScanBytes are the Section 6 decision inputs
	// (EngineAuto only).
	SingleScanBytes float64 `json:"single_scan_bytes,omitempty"`
	SortScanBytes   float64 `json:"sort_scan_bytes,omitempty"`
	// Passes is the multi-pass plan (multipass engine only): each entry
	// names the pass's sort key and the basic measures it evaluates.
	Passes []string `json:"passes,omitempty"`
	// Nodes holds one entry per workflow measure, in topological order.
	Nodes []ProfileNode `json:"nodes"`
	// Analyzed reports whether actuals are present (EXPLAIN ANALYZE).
	Analyzed bool `json:"analyzed,omitempty"`
	// Stats is the analyzed run's own numbers (ExplainAnalyzeCompiled only),
	// whatever the recorder held before.
	Stats *EngineStats `json:"stats,omitempty"`
}

// ProfileNode is one measure node of the profile.
type ProfileNode struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Gran    string   `json:"gran"`
	Sources []string `json:"sources,omitempty"`
	Hidden  bool     `json:"hidden,omitempty"`
	// Order is the node's finalized-entry stream order under the chosen
	// sort key (plan-based engines).
	Order string `json:"order,omitempty"`
	// EstCells is the optimizer's live-cell estimate for the node;
	// HasEstimate distinguishes "estimated zero" from "no estimate"
	// (engines without an optimizer pass).
	EstCells    float64 `json:"est_cells,omitempty"`
	HasEstimate bool    `json:"has_estimate,omitempty"`
	// EstSource labels where the estimate came from: "assumed" (paper
	// defaults), "collected" (scanned/supplied cardinalities), or
	// "measured" (a previous completed run's true cell counts via the
	// query history).
	EstSource string `json:"est_source,omitempty"`
	// Pass is the 1-based multi-pass pass that evaluates the node
	// (multipass basics only; 0 otherwise).
	Pass int `json:"pass,omitempty"`
	// Actual holds the engine-published per-node stats (ExplainAnalyzeCompiled
	// only; nil in a plain EXPLAIN).
	Actual *NodeStats `json:"actual,omitempty"`
}

// Result is an analyzed query outcome: the measure tables plus the
// execution profile. Returned by ExplainAnalyzeCompiled.
type Result struct {
	Tables  Results
	Profile *Profile
}

// Estimate-source labels used in ProfileNode.EstSource and
// plan.Node.EstSource.
const (
	SourceAssumed   = plan.SourceAssumed
	SourceCollected = plan.SourceCollected
	SourceMeasured  = plan.SourceMeasured
)

// Explain renders the query plan without running it: the engine the
// options select (resolving EngineAuto with the Section 6 decision
// procedure), the optimizer's sort key and footprint estimates, and
// per-node live-cell estimates. BaseCards/MemoryBudget/SortKey/Engine
// from opts feed the estimate exactly as Run would use them. With no
// collection at hand, History-backed measured statistics cannot apply;
// use ExplainFor to plan against a specific input.
func Explain(c *Compiled, opts ...QueryOptions) (*Profile, error) {
	return ExplainFor(c, Input{}, opts...)
}

// ExplainFor is Explain with the target collection known: when
// opts.History holds measured statistics for this input (from earlier
// completed runs), the plan uses them and labels those nodes
// "measured" — exactly as Run would plan.
func ExplainFor(c *Compiled, in Input, opts ...QueryOptions) (*Profile, error) {
	var o QueryOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	fp, _ := CollectionFingerprint(in)
	st := planStats(c, fp, &o)
	p := &Profile{}
	if o.Engine == EngineAuto {
		if err := p.resolveAuto(c, st, &o); err != nil {
			return nil, err
		}
	}
	p.Engine = o.Engine.String()
	if err := buildEstimates(c, &o, st, p); err != nil {
		return nil, err
	}
	return p, nil
}

// resolveAuto resolves EngineAuto in o exactly as a run would
// (resolveAuto in run.go) and records the Section 6 decision inputs in
// the profile's headline.
func (p *Profile) resolveAuto(c *Compiled, st *plan.Stats, o *QueryOptions) error {
	d, err := resolveAuto(c, st, o)
	if err != nil {
		return err
	}
	p.Strategy = d.Strategy.String()
	p.SingleScanBytes = d.SingleScanBytes
	p.SortScanBytes = d.SortScanBytes
	return nil
}

// buildEstimates fills p.Nodes (and the key/footprint headline fields)
// for the resolved engine in o.Engine.
func buildEstimates(c *Compiled, o *QueryOptions, st *plan.Stats, p *Profile) error {
	nodes := make([]ProfileNode, len(c.Measures))
	for i, m := range c.Measures {
		nodes[i] = ProfileNode{
			Name:   m.Name,
			Kind:   m.Kind.String(),
			Gran:   c.Schema.GranString(m.Gran),
			Hidden: m.Hidden,
		}
		for _, si := range m.Sources {
			nodes[i].Sources = append(nodes[i].Sources, c.Measures[si].Name)
		}
		// The cell-providing base measure is a real arc of the DAG
		// (fromparent/sibling); show it as a source unless it already is
		// one (combine reuses its first source).
		if m.Base >= 0 {
			base := c.Measures[m.Base].Name
			seen := false
			for _, s := range nodes[i].Sources {
				if s == base {
					seen = true
				}
			}
			if !seen {
				nodes[i].Sources = append(nodes[i].Sources, base)
			}
		}
	}

	switch o.Engine {
	case EngineSortScan, EngineShardScan:
		key := o.SortKey
		if key == nil {
			ch, err := opt.Best(c, st)
			if err != nil {
				return err
			}
			key = ch.Key
		}
		nk, err := SortKey(key).Normalize(c.Schema)
		if err != nil {
			return err
		}
		pl, err := plan.Build(c, nk, st)
		if err != nil {
			return err
		}
		p.SortKey = pl.SortKey.String(c.Schema)
		p.EstBytes = pl.EstBytes
		for i := range nodes {
			nodes[i].EstCells = pl.Nodes[i].EstCells
			nodes[i].HasEstimate = true
			nodes[i].EstSource = pl.Nodes[i].EstSource
			nodes[i].Order = pl.Nodes[i].OutOrder.String(c.Schema)
		}
	case EngineMultiPass:
		passes, err := multipass.PlanPasses(c, float64(o.MemoryBudget), st)
		if err != nil {
			return err
		}
		for pi, pass := range passes {
			p.Passes = append(p.Passes, fmt.Sprintf("pass %d: key %s, est %.0f bytes, measures %s",
				pi+1, pass.SortKey.String(c.Schema), pass.EstBytes, strings.Join(pass.Measures, ",")))
			pl, err := plan.Build(c, pass.SortKey, st)
			if err != nil {
				return err
			}
			for _, name := range pass.Measures {
				i, err := c.Index(name)
				if err != nil {
					return err
				}
				nodes[i].EstCells = pl.Nodes[i].EstCells
				nodes[i].HasEstimate = true
				nodes[i].EstSource = pl.Nodes[i].EstSource
				nodes[i].Order = pl.Nodes[i].OutOrder.String(c.Schema)
				nodes[i].Pass = pi + 1
			}
		}
		if len(passes) > 0 {
			p.SortKey = passes[0].SortKey.String(c.Schema)
		}
	case EngineSingleScan:
		// No sort, no early flushing: every node holds its full region
		// count at once.
		for i := range nodes {
			nodes[i].EstCells, nodes[i].EstSource = opt.MeasureCellsInfo(c, i, st)
			nodes[i].HasEstimate = true
		}
	}
	p.Nodes = nodes
	return nil
}

// freezeStats resolves the stats' dynamic measured-statistics lookup
// into an immutable per-signature snapshot, so estimates rebuilt after
// a run match what the planner saw before it.
func freezeStats(c *Compiled, st *plan.Stats) *plan.Stats {
	if st == nil || st.Measured == nil {
		return st
	}
	cache := make(map[string]float64, len(c.Measures))
	for i := range c.Measures {
		sig := c.NodeSignature(i)
		if cells, ok := st.Measured(sig); ok && cells > 0 {
			cache[sig] = cells
		}
	}
	cp := *st
	cp.Measured = func(sig string) (float64, bool) {
		v, ok := cache[sig]
		return v, ok
	}
	return &cp
}

// ExplainAnalyzeCompiled runs a compiled workflow and returns the
// tables together with a Profile whose nodes carry the actual per-node
// stats the engines published — records in/out, cells created/finalized,
// live-cell high-water mark, flush batches, and per-arc watermark
// behavior — next to the optimizer's estimates.
func ExplainAnalyzeCompiled(ctx context.Context, c *Compiled, in Input, opts ...QueryOptions) (*Result, error) {
	var o QueryOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	// Freeze the measured-statistics view before running: the run
	// itself appends to the history, and the profile must reflect the
	// estimates the planner actually saw, not post-run knowledge.
	fp, _ := CollectionFingerprint(in)
	st := freezeStats(c, planStats(c, fp, &o))
	res, engine, err := runResolved(ctx, c, in, o)
	if err != nil {
		return nil, err
	}
	// Rebuild the estimate view under the engine that actually ran, then
	// overlay the run's per-node actuals.
	eo := o
	p := &Profile{Engine: engine.String(), Analyzed: true}
	if o.Engine == EngineAuto {
		// The run succeeded, so the decision it resolved does too.
		_ = p.resolveAuto(c, st, &eo)
	}
	eo.Engine = engine
	if err := buildEstimates(c, &eo, st, p); err != nil {
		return nil, err
	}
	p.Stats = &res.Stats
	actual := res.Stats.NodeTotals()
	for i := range p.Nodes {
		if ns, ok := actual[p.Nodes[i].Name]; ok {
			p.Nodes[i].Actual = &ns
		}
	}
	return &Result{Tables: res.Tables, Profile: p}, nil
}

// String renders the profile as a tree rooted at the workflow's output
// measures, each node showing the optimizer estimate and (when
// analyzed) the actuals, with watermark arcs as indented sub-lines.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine %s", p.Engine)
	if p.Strategy != "" {
		fmt.Fprintf(&b, " (auto: %s; singlescan %.0f B vs sortscan %.0f B)",
			p.Strategy, p.SingleScanBytes, p.SortScanBytes)
	}
	b.WriteByte('\n')
	if p.SortKey != "" {
		fmt.Fprintf(&b, "sort key %s", p.SortKey)
		if p.EstBytes > 0 {
			fmt.Fprintf(&b, ", est %.0f bytes", p.EstBytes)
		}
		b.WriteByte('\n')
	}
	for _, ps := range p.Passes {
		fmt.Fprintf(&b, "%s\n", ps)
	}

	byName := make(map[string]*ProfileNode, len(p.Nodes))
	consumed := make(map[string]bool)
	for i := range p.Nodes {
		byName[p.Nodes[i].Name] = &p.Nodes[i]
		for _, s := range p.Nodes[i].Sources {
			consumed[s] = true
		}
	}
	printed := make(map[string]bool)
	tw := nodeTableWriter{b: &b}
	var walk func(name, indent string)
	walk = func(name, indent string) {
		n := byName[name]
		if n == nil {
			return
		}
		if printed[name] {
			fmt.Fprintf(&b, "%s- %s (shown above)\n", indent, name)
			return
		}
		printed[name] = true
		tw.writeNode(n, indent)
		for _, s := range n.Sources {
			walk(s, indent+"  ")
		}
		if n.Kind == "basic" {
			fmt.Fprintf(&b, "%s  - fact\n", indent)
		}
	}
	// Roots: nodes no other node consumes (the workflow's sinks), in
	// reverse topological order so composites print above their inputs.
	var roots []string
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if !consumed[p.Nodes[i].Name] {
			roots = append(roots, p.Nodes[i].Name)
		}
	}
	sort.Strings(roots)
	for _, r := range roots {
		walk(r, "")
	}
	return b.String()
}

// nodeTableWriter renders one profile node's estimate-vs-actual
// columns. It is the single rendering path for both EXPLAIN (estimates
// only) and EXPLAIN ANALYZE (estimates plus engine actuals), so the
// two views cannot drift apart.
type nodeTableWriter struct {
	b *strings.Builder
}

func (tw nodeTableWriter) writeNode(n *ProfileNode, indent string) {
	fmt.Fprintf(tw.b, "%s- %s [%s] gran=(%s)", indent, n.Name, n.Kind, n.Gran)
	if n.Pass > 0 {
		fmt.Fprintf(tw.b, " pass=%d", n.Pass)
	}
	if n.HasEstimate {
		fmt.Fprintf(tw.b, " est_cells=%.0f", n.EstCells)
		if n.EstSource != "" {
			fmt.Fprintf(tw.b, " (%s)", n.EstSource)
		}
	}
	a := n.Actual
	if a == nil {
		tw.b.WriteByte('\n')
		return
	}
	fmt.Fprintf(tw.b, "\n%s    actual: in=%d out=%d cells=%d/%d hwm=%d",
		indent, a.RecordsIn, a.RecordsOut, a.CellsCreated, a.CellsFinalized, a.LiveCellsHWM)
	if a.FlushBatches > 0 {
		fmt.Fprintf(tw.b, " flushes=%d", a.FlushBatches)
	}
	tw.b.WriteByte('\n')
	for _, arc := range a.Arcs {
		fmt.Fprintf(tw.b, "%s    arc %s: advances=%d held_back=%d\n",
			indent, arc.Label, arc.Advances, arc.HeldBack)
	}
}
