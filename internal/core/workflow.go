package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"awra/internal/agg"
	"awra/internal/model"
)

// MeasureKind classifies how a workflow measure is computed. Each kind
// corresponds to one oval-with-arcs shape in the paper's pictorial
// language (Section 4) and translates to an AW-RA expression
// (Theorem 2, see Translate).
type MeasureKind int

const (
	// KindBasic aggregates the fact table directly: g_{G,agg}(D) or
	// g_{G,agg}(sigma(D)). No computational arc enters its oval.
	KindBasic MeasureKind = iota
	// KindRollup aggregates a source measure to a coarser (or equal)
	// granularity: the child/parent match join, which the paper notes
	// "is essentially equal to an aggregation operator". An optional
	// filter implements the sigma on the computational arc.
	KindRollup
	// KindFromParent gives each region the measure of its unique
	// ancestor in a coarser source measure (the parent/child match
	// join). Output cells are provided by the base measure.
	KindFromParent
	// KindSibling aggregates the source measure over a moving window
	// of neighboring regions at the same granularity (the sibling
	// match join). Output cells are provided by the base measure.
	KindSibling
	// KindCombine merges the measures of same-granularity sources
	// with a combine function (the combine join). Cells come from the
	// first source.
	KindCombine
)

func (k MeasureKind) String() string {
	switch k {
	case KindBasic:
		return "basic"
	case KindRollup:
		return "rollup"
	case KindFromParent:
		return "fromparent"
	case KindSibling:
		return "sibling"
	case KindCombine:
		return "combine"
	}
	return fmt.Sprintf("MeasureKind(%d)", int(k))
}

// Measure is one compiled measure: an oval in the aggregation-workflow
// diagram, attached to the region set identified by Gran.
type Measure struct {
	Name string
	Kind MeasureKind
	Gran model.Gran
	// Codec encodes this measure's region keys.
	Codec *model.KeyCodec

	// Agg applies to basic, rollup, fromparent and sibling measures.
	Agg agg.Kind
	// FactMeasure is the fact measure attribute a basic measure
	// aggregates; -1 aggregates rows (COUNT(*)-style).
	FactMeasure int
	// Filter, if non-nil, is the sigma applied to input rows before
	// aggregation: fact records for basic measures, source-measure
	// rows otherwise.
	Filter *Predicate
	// Windows are the sibling windows (KindSibling only).
	Windows []Window
	// Combine is the combine-join function (KindCombine only).
	Combine *CombineFunc

	// Sources are the measures whose values feed this one (one for
	// rollup/fromparent/sibling, n>=1 for combine), as indices into
	// Compiled.Measures. Nil for basic measures.
	Sources []int
	// Base is the measure enumerating this measure's output cells
	// (fromparent/sibling: the S_base of the paper; combine: the
	// first source). -1 when cells derive from the source rows
	// themselves (basic, rollup).
	Base int
	// Hidden marks auto-generated S_base measures: computed and
	// propagated, but not reported as query outputs.
	Hidden bool
}

// SourceNames returns the names of the source measures, resolved
// against the compiled workflow.
func (m *Measure) SourceNames(c *Compiled) []string {
	out := make([]string, len(m.Sources))
	for i, s := range m.Sources {
		out[i] = c.Measures[s].Name
	}
	return out
}

// Compiled is a validated, topologically ordered workflow: dependencies
// always precede dependents in Measures. This is the computation graph
// of Section 5.3.1 — one node per measure, one arc per source — that
// all engines execute.
type Compiled struct {
	Schema   *model.Schema
	Measures []*Measure
	byName   map[string]int
	outputs  []string
	// sigMu guards the lazily computed node signatures and workflow
	// fingerprint (see signature.go).
	sigMu sync.Mutex
	sigs  []string
	fp    string
}

// MeasureByName resolves a measure name.
func (c *Compiled) MeasureByName(name string) (*Measure, error) {
	i, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("core: workflow has no measure %q", name)
	}
	return c.Measures[i], nil
}

// Index returns the position of a measure in Measures.
func (c *Compiled) Index(name string) (int, error) {
	i, ok := c.byName[name]
	if !ok {
		return 0, fmt.Errorf("core: workflow has no measure %q", name)
	}
	return i, nil
}

// Outputs lists the user-declared (non-hidden) measure names in
// declaration order.
func (c *Compiled) Outputs() []string { return c.outputs }

// Basics returns the workflow of the named basic measures alone, each
// an output under its own name — hidden bases included, so their
// tables and published node stats keep the names this workflow uses.
// Multi-pass evaluation runs one such workflow per pass.
func (c *Compiled) Basics(names []string) (*Compiled, error) {
	sub := &Compiled{Schema: c.Schema, byName: make(map[string]int, len(names))}
	for _, name := range names {
		m, err := c.MeasureByName(name)
		if err != nil {
			return nil, err
		}
		if m.Kind != KindBasic {
			return nil, fmt.Errorf("core: measure %q is not a basic measure", name)
		}
		b := *m
		b.Hidden = false
		sub.byName[name] = len(sub.Measures)
		sub.Measures = append(sub.Measures, &b)
		sub.outputs = append(sub.outputs, name)
	}
	return sub, nil
}

// measureDef is the pre-validation builder form.
type measureDef struct {
	name        string
	kind        MeasureKind
	gran        model.Gran
	aggKind     agg.Kind
	factMeasure int
	filter      *Predicate
	windows     []Window
	combine     *CombineFunc
	sources     []string
	base        string // explicit base measure name, "" = auto
}

// Workflow builds an aggregation workflow incrementally. Errors are
// accumulated and reported by Compile, so construction chains read
// cleanly.
type Workflow struct {
	schema *model.Schema
	defs   []*measureDef
	byName map[string]*measureDef
	errs   []string
}

// NewWorkflow starts an empty workflow over a schema.
func NewWorkflow(s *model.Schema) *Workflow {
	return &Workflow{schema: s, byName: make(map[string]*measureDef)}
}

// Schema returns the workflow's schema.
func (w *Workflow) Schema() *model.Schema { return w.schema }

// MeasureOpt customizes a measure definition.
type MeasureOpt func(*measureDef)

// Where attaches a selection to the measure's input rows: fact records
// for basic measures, source-measure rows otherwise. It is the sigma on
// the computational arc in the workflow diagram.
func Where(p Predicate) MeasureOpt {
	return func(d *measureDef) { d.filter = &p }
}

// WithBase names an existing measure (of the same granularity as the
// new measure) as the cell provider — the S_base of the paper's
// equations 4.2/4.3. Applies to FromParent and Sliding measures; by
// default a hidden g_{G,0}(D) base is synthesized.
func WithBase(name string) MeasureOpt {
	return func(d *measureDef) { d.base = name }
}

func (w *Workflow) addf(format string, args ...interface{}) {
	w.errs = append(w.errs, fmt.Sprintf(format, args...))
}

func (w *Workflow) add(d *measureDef, opts []MeasureOpt) {
	for _, o := range opts {
		o(d)
	}
	if d.name == "" {
		w.addf("measure with empty name")
		return
	}
	if strings.HasPrefix(d.name, "__") {
		w.addf("measure %q: names starting with __ are reserved", d.name)
		return
	}
	if _, dup := w.byName[d.name]; dup {
		w.addf("duplicate measure %q", d.name)
		return
	}
	// Sibling and combine measures inherit their granularity from the
	// first source during Compile.
	if d.kind != KindSibling && d.kind != KindCombine {
		g, err := w.schema.Normalize(d.gran)
		if err != nil {
			w.addf("measure %q: %v", d.name, err)
			return
		}
		d.gran = g
	}
	w.defs = append(w.defs, d)
	w.byName[d.name] = d
}

// Basic declares a basic measure g_{gran,aggKind}(D) over the fact
// table (or over sigma(D) with Where). factMeasure picks the fact
// measure attribute to aggregate; -1 aggregates rows (COUNT(*)).
func (w *Workflow) Basic(name string, gran model.Gran, aggKind agg.Kind, factMeasure int, opts ...MeasureOpt) *Workflow {
	w.add(&measureDef{name: name, kind: KindBasic, gran: gran, aggKind: aggKind, factMeasure: factMeasure}, opts)
	return w
}

// Rollup declares a measure aggregating source's values to a coarser
// or equal granularity (the child/parent match join; with equal
// granularity it is the self match).
func (w *Workflow) Rollup(name string, gran model.Gran, source string, aggKind agg.Kind, opts ...MeasureOpt) *Workflow {
	w.add(&measureDef{name: name, kind: KindRollup, gran: gran, aggKind: aggKind, sources: []string{source}}, opts)
	return w
}

// FromParent declares a measure at a finer granularity, giving each
// region the aggregate of its unique ancestor's value in source (the
// parent/child match join).
func (w *Workflow) FromParent(name string, gran model.Gran, source string, aggKind agg.Kind, opts ...MeasureOpt) *Workflow {
	w.add(&measureDef{name: name, kind: KindFromParent, gran: gran, aggKind: aggKind, sources: []string{source}}, opts)
	return w
}

// Sliding declares a sibling-match measure: each region aggregates
// source values over the given windows of neighboring regions at the
// same granularity (Example 4's moving average).
func (w *Workflow) Sliding(name string, source string, aggKind agg.Kind, windows []Window, opts ...MeasureOpt) *Workflow {
	w.add(&measureDef{name: name, kind: KindSibling, aggKind: aggKind, sources: []string{source}, windows: windows}, opts)
	return w
}

// Combine declares a combine-join measure merging the same-granularity
// sources with fc; cells come from the first source (the S operand).
func (w *Workflow) Combine(name string, sources []string, fc CombineFunc, opts ...MeasureOpt) *Workflow {
	w.add(&measureDef{name: name, kind: KindCombine, combine: &fc, sources: sources}, opts)
	return w
}

// Compile validates the workflow, synthesizes hidden S_base measures,
// and returns the topologically ordered computation graph.
func (w *Workflow) Compile() (*Compiled, error) {
	if len(w.errs) > 0 {
		return nil, fmt.Errorf("core: invalid workflow:\n  %s", strings.Join(w.errs, "\n  "))
	}
	if len(w.defs) == 0 {
		return nil, fmt.Errorf("core: workflow declares no measures")
	}
	var errs []string
	addf := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	// Resolve granularities and per-kind structural rules.
	for _, d := range w.defs {
		for _, s := range d.sources {
			if _, ok := w.byName[s]; !ok {
				addf("measure %q: unknown source %q", d.name, s)
			}
		}
		if d.base != "" {
			if _, ok := w.byName[d.base]; !ok {
				addf("measure %q: unknown base %q", d.name, d.base)
			}
			if d.kind != KindFromParent && d.kind != KindSibling {
				addf("measure %q: WithBase applies only to FromParent and Sliding measures", d.name)
			}
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("core: invalid workflow:\n  %s", strings.Join(errs, "\n  "))
	}

	// Granularity inference for kinds that inherit it.
	for _, d := range w.defs {
		switch d.kind {
		case KindSibling:
			d.gran = w.byName[d.sources[0]].gran.Clone()
		case KindCombine:
			d.gran = w.byName[d.sources[0]].gran.Clone()
		}
	}

	for _, d := range w.defs {
		switch d.kind {
		case KindBasic:
			if d.factMeasure >= w.schema.NumMeasures() {
				addf("measure %q: fact measure %d out of range (schema has %d)", d.name, d.factMeasure, w.schema.NumMeasures())
			}
			if d.factMeasure < 0 && !rowAggOK(d.aggKind) {
				addf("measure %q: %v needs a fact measure attribute", d.name, d.aggKind)
			}
		case KindRollup:
			src := w.byName[d.sources[0]]
			if !w.schema.GranLeq(src.gran, d.gran) {
				addf("measure %q: rollup target %s is not a roll-up of source %s",
					d.name, w.schema.GranString(d.gran), w.schema.GranString(src.gran))
			}
		case KindFromParent:
			src := w.byName[d.sources[0]]
			if !w.schema.GranLeq(d.gran, src.gran) || model.GranEq(d.gran, src.gran) {
				addf("measure %q: parent source %s must be strictly coarser than %s",
					d.name, w.schema.GranString(src.gran), w.schema.GranString(d.gran))
			}
		case KindSibling:
			if len(d.windows) == 0 {
				addf("measure %q: sibling measure needs at least one window", d.name)
			}
			seen := map[int]bool{}
			for _, win := range d.windows {
				if win.Dim < 0 || win.Dim >= w.schema.NumDims() {
					addf("measure %q: window on unknown dimension %d", d.name, win.Dim)
					continue
				}
				if d.gran[win.Dim] == w.schema.Dim(win.Dim).ALL() {
					addf("measure %q: window on dimension %q, which is at D_ALL", d.name, w.schema.Dim(win.Dim).Name())
				}
				if win.Lo > win.Hi {
					addf("measure %q: window on %q has Lo %d > Hi %d", d.name, w.schema.Dim(win.Dim).Name(), win.Lo, win.Hi)
				}
				if seen[win.Dim] {
					addf("measure %q: duplicate window on dimension %q", d.name, w.schema.Dim(win.Dim).Name())
				}
				seen[win.Dim] = true
			}
		case KindCombine:
			if d.filter != nil {
				addf("measure %q: Where does not apply to combine joins; filter the sources instead", d.name)
			}
			for _, s := range d.sources {
				src := w.byName[s]
				if !model.GranEq(src.gran, d.gran) {
					addf("measure %q: combine source %q has granularity %s, want %s",
						d.name, s, w.schema.GranString(src.gran), w.schema.GranString(d.gran))
				}
			}
		}
		if d.base != "" {
			base := w.byName[d.base]
			if !model.GranEq(base.gran, d.gran) {
				addf("measure %q: base %q has granularity %s, want %s",
					d.name, d.base, w.schema.GranString(base.gran), w.schema.GranString(d.gran))
			}
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("core: invalid workflow:\n  %s", strings.Join(errs, "\n  "))
	}

	// Synthesize hidden S_base measures for FromParent/Sibling
	// measures without an explicit base: one per granularity.
	defs := append([]*measureDef{}, w.defs...)
	byName := make(map[string]*measureDef, len(defs))
	for _, d := range defs {
		byName[d.name] = d
	}
	// effBase tracks each measure's cell provider without mutating the
	// builder's defs, keeping Compile idempotent.
	effBase := map[*measureDef]string{}
	for _, d := range defs {
		if d.base != "" {
			effBase[d] = d.base
		}
	}
	baseFor := map[string]string{} // gran string -> hidden base name
	for _, d := range w.defs {
		if (d.kind == KindFromParent || d.kind == KindSibling) && d.base == "" {
			gs := w.schema.GranString(d.gran)
			name, ok := baseFor[gs]
			if !ok {
				name = "__base" + gs
				baseFor[gs] = name
				bd := &measureDef{
					name:        name,
					kind:        KindBasic,
					gran:        d.gran.Clone(),
					aggKind:     agg.ConstZero,
					factMeasure: -1,
				}
				defs = append(defs, bd)
				byName[name] = bd
			}
			effBase[d] = name
		}
	}

	// Topological sort (deps = sources + base), with cycle detection.
	depsOf := func(d *measureDef) []string {
		out := append([]string{}, d.sources...)
		if b := effBase[d]; b != "" {
			out = append(out, b)
		}
		return out
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(defs))
	var order []*measureDef
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch state[name] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("core: workflow has a cycle: %s -> %s", strings.Join(path, " -> "), name)
		}
		state[name] = visiting
		d := byName[name]
		for _, dep := range depsOf(d) {
			if err := visit(dep, append(path, name)); err != nil {
				return err
			}
		}
		state[name] = done
		order = append(order, d)
		return nil
	}
	// Visit in declaration order for deterministic output; hidden
	// bases sort by name for determinism.
	names := make([]string, 0, len(defs))
	for _, d := range w.defs {
		names = append(names, d.name)
	}
	var hidden []string
	for n := range baseFor {
		hidden = append(hidden, baseFor[n])
	}
	sort.Strings(hidden)
	names = append(names, hidden...)
	for _, n := range names {
		if err := visit(n, nil); err != nil {
			return nil, err
		}
	}

	// Materialize the compiled graph.
	c := &Compiled{Schema: w.schema, byName: make(map[string]int, len(order))}
	for _, d := range order {
		m := &Measure{
			Name:        d.name,
			Kind:        d.kind,
			Gran:        d.gran,
			Codec:       model.NewKeyCodec(w.schema, d.gran),
			Agg:         d.aggKind,
			FactMeasure: d.factMeasure,
			Filter:      d.filter,
			Windows:     d.windows,
			Combine:     d.combine,
			Base:        -1,
			Hidden:      strings.HasPrefix(d.name, "__"),
		}
		c.byName[d.name] = len(c.Measures)
		c.Measures = append(c.Measures, m)
	}
	for _, m := range c.Measures {
		d := byName[m.Name]
		for _, s := range d.sources {
			m.Sources = append(m.Sources, c.byName[s])
		}
		if b := effBase[d]; b != "" {
			m.Base = c.byName[b]
		} else if d.kind == KindCombine {
			m.Base = m.Sources[0]
		}
	}
	for _, d := range w.defs {
		c.outputs = append(c.outputs, d.name)
	}
	return c, nil
}
