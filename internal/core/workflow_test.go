package core

import (
	"strings"
	"testing"

	"awra/internal/agg"
	"awra/internal/model"
)

// exampleWorkflow builds the paper's Examples 1-5 as one workflow over
// the twoDim schema (A ~ time at L1, B ~ source at L0).
func exampleWorkflow(t *testing.T) *Compiled {
	t.Helper()
	s := twoDim(t)
	w := NewWorkflow(s).
		Basic("Count", model.Gran{1, 0}, agg.Count, -1).
		Rollup("sCount", model.Gran{1, model.LevelALL}, "Count", agg.Count, Where(MWhere(0, Gt, 1))).
		Rollup("sTraffic", model.Gran{1, model.LevelALL}, "Count", agg.Sum, Where(MWhere(0, Gt, 1))).
		Sliding("avgCount", "sCount", agg.Avg, []Window{{Dim: 0, Lo: 0, Hi: 1}}).
		Combine("ratio", []string{"avgCount", "sTraffic", "sCount"}, CombineFunc{
			Name: "v0/(v1/v2)",
			Fn: func(v []float64) float64 {
				if agg.IsNull(v[0]) || agg.IsNull(v[1]) || agg.IsNull(v[2]) || v[1] == 0 {
					return agg.Null()
				}
				return v[0] / (v[1] / v[2])
			},
		})
	c, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWorkflowCompile(t *testing.T) {
	c := exampleWorkflow(t)
	// One hidden base for the sibling measure's granularity.
	hidden := 0
	for _, m := range c.Measures {
		if m.Hidden {
			hidden++
			if m.Agg != agg.ConstZero || m.Kind != KindBasic {
				t.Errorf("hidden base %q has kind %v agg %v", m.Name, m.Kind, m.Agg)
			}
		}
	}
	if hidden != 1 {
		t.Errorf("hidden measures = %d, want 1", hidden)
	}
	if got := len(c.Outputs()); got != 5 {
		t.Errorf("outputs = %d, want 5", got)
	}
	// Topological order: every source/base index precedes the measure.
	pos := map[string]int{}
	for i, m := range c.Measures {
		pos[m.Name] = i
		for _, sIdx := range m.Sources {
			if sIdx >= i {
				t.Errorf("measure %q depends on later measure %q", m.Name, c.Measures[sIdx].Name)
			}
		}
		if m.Base >= i {
			t.Errorf("measure %q has base after it", m.Name)
		}
	}
	// Combine's base is its first source.
	ratio, err := c.MeasureByName("ratio")
	if err != nil {
		t.Fatal(err)
	}
	if ratio.Base != ratio.Sources[0] {
		t.Error("combine base is not first source")
	}
	if got := ratio.SourceNames(c); got[0] != "avgCount" || got[1] != "sTraffic" || got[2] != "sCount" {
		t.Errorf("SourceNames = %v", got)
	}
	if _, err := c.MeasureByName("nope"); err == nil {
		t.Error("unknown measure resolved")
	}
	if _, err := c.Index("nope"); err == nil {
		t.Error("unknown index resolved")
	}
}

func TestWorkflowSharedHiddenBase(t *testing.T) {
	s := twoDim(t)
	g := model.Gran{1, model.LevelALL}
	c, err := NewWorkflow(s).
		Basic("a", g, agg.Count, -1).
		Sliding("w1", "a", agg.Sum, []Window{{Dim: 0, Lo: -1, Hi: 0}}).
		Sliding("w2", "a", agg.Avg, []Window{{Dim: 0, Lo: 0, Hi: 2}}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	bases := map[int]bool{}
	for _, name := range []string{"w1", "w2"} {
		m, _ := c.MeasureByName(name)
		bases[m.Base] = true
	}
	if len(bases) != 1 {
		t.Errorf("sliding measures at one granularity should share one hidden base, got %d", len(bases))
	}
}

func TestWorkflowExplicitBase(t *testing.T) {
	s := twoDim(t)
	g := model.Gran{1, model.LevelALL}
	c, err := NewWorkflow(s).
		Basic("cells", g, agg.Count, -1).
		Basic("sum", g, agg.Sum, 0).
		Sliding("w", "sum", agg.Sum, []Window{{Dim: 0, Lo: -1, Hi: 1}}, WithBase("cells")).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.MeasureByName("w")
	i, _ := c.Index("cells")
	if m.Base != i {
		t.Error("explicit base not used")
	}
	for _, mm := range c.Measures {
		if mm.Hidden {
			t.Error("hidden base synthesized despite explicit base")
		}
	}
}

func TestWorkflowValidationErrors(t *testing.T) {
	s := twoDim(t)
	g := model.Gran{1, model.LevelALL}
	fine := model.Gran{0, 0}

	cases := []struct {
		name string
		w    *Workflow
		want string
	}{
		{"empty name", NewWorkflow(s).Basic("", g, agg.Count, -1), "empty name"},
		{"reserved name", NewWorkflow(s).Basic("__x", g, agg.Count, -1), "reserved"},
		{"duplicate", NewWorkflow(s).Basic("a", g, agg.Count, -1).Basic("a", g, agg.Count, -1), "duplicate"},
		{"bad gran", NewWorkflow(s).Basic("a", model.Gran{9, 9}, agg.Count, -1), "no level"},
		{"no measures", NewWorkflow(s), "no measures"},
		{"unknown source", NewWorkflow(s).Rollup("r", g, "ghost", agg.Sum), "unknown source"},
		{"bad fact measure", NewWorkflow(s).Basic("a", g, agg.Sum, 7), "out of range"},
		{"sum of rows", NewWorkflow(s).Basic("a", g, agg.Sum, -1), "needs a fact measure"},
		{"rollup finer", NewWorkflow(s).Basic("a", g, agg.Count, -1).Rollup("r", fine, "a", agg.Sum), "not a roll-up"},
		{"parent not coarser", NewWorkflow(s).Basic("a", g, agg.Count, -1).FromParent("p", g, "a", agg.Sum), "strictly coarser"},
		{"sibling no window", NewWorkflow(s).Basic("a", g, agg.Count, -1).Sliding("w", "a", agg.Sum, nil), "at least one window"},
		{"window bad dim", NewWorkflow(s).Basic("a", g, agg.Count, -1).Sliding("w", "a", agg.Sum, []Window{{Dim: 7, Lo: 0, Hi: 1}}), "unknown dimension"},
		{"window on ALL", NewWorkflow(s).Basic("a", g, agg.Count, -1).Sliding("w", "a", agg.Sum, []Window{{Dim: 1, Lo: 0, Hi: 1}}), "D_ALL"},
		{"window lo>hi", NewWorkflow(s).Basic("a", g, agg.Count, -1).Sliding("w", "a", agg.Sum, []Window{{Dim: 0, Lo: 3, Hi: 1}}), "Lo 3 > Hi 1"},
		{"window dup", NewWorkflow(s).Basic("a", g, agg.Count, -1).Sliding("w", "a", agg.Sum, []Window{{Dim: 0, Lo: 0, Hi: 1}, {Dim: 0, Lo: 0, Hi: 2}}), "duplicate window"},
		{"combine gran", NewWorkflow(s).Basic("a", g, agg.Count, -1).Basic("b", fine, agg.Count, -1).Combine("c", []string{"a", "b"}, SumOf()), "granularity"},
		{"combine filter", NewWorkflow(s).Basic("a", g, agg.Count, -1).Combine("c", []string{"a"}, SumOf(), Where(MWhere(0, Gt, 0))), "Where does not apply"},
		{"base unknown", NewWorkflow(s).Basic("a", g, agg.Count, -1).Sliding("w", "a", agg.Sum, []Window{{Dim: 0, Lo: 0, Hi: 1}}, WithBase("ghost")), "unknown base"},
		{"base on rollup", NewWorkflow(s).Basic("a", g, agg.Count, -1).Rollup("r", model.Gran{2, model.LevelALL}, "a", agg.Sum, WithBase("a")), "WithBase applies only"},
		{"base gran", NewWorkflow(s).Basic("a", g, agg.Count, -1).Basic("b", fine, agg.Count, -1).Sliding("w", "a", agg.Sum, []Window{{Dim: 0, Lo: 0, Hi: 1}}, WithBase("b")), "granularity"},
	}
	for _, tc := range cases {
		_, err := tc.w.Compile()
		if err == nil {
			t.Errorf("%s: compiled without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestWorkflowCycleDetection(t *testing.T) {
	s := twoDim(t)
	g := model.Gran{1, model.LevelALL}
	_, err := NewWorkflow(s).
		Rollup("a", g, "b", agg.Sum).
		Rollup("b", g, "a", agg.Sum).
		Compile()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
	// Self-cycle.
	_, err = NewWorkflow(s).Rollup("a", g, "a", agg.Sum).Compile()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("self-cycle not detected: %v", err)
	}
}

func TestTranslatePaperEquations(t *testing.T) {
	c := exampleWorkflow(t)
	e, err := Translate(c, "sCount")
	if err != nil {
		t.Fatal(err)
	}
	// Equation 3.2.2 shape: g_(A:L1),count(sigma_[M>1](g_(A:L1,B:L0),count(D)))
	str := e.String()
	for _, frag := range []string{"g_(A:L1),count", "sigma_[M0 > 1]", "g_(A:L1, B:L0),count(D)"} {
		if !strings.Contains(str, frag) {
			t.Errorf("translated sCount %q missing %q", str, frag)
		}
	}
	e, err = Translate(c, "avgCount")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "|x|_{sibling, A in [+0,+1]},avg") {
		t.Errorf("translated avgCount = %q", e.String())
	}
	e, err = Translate(c, "ratio")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "|x|bar") {
		t.Errorf("translated ratio = %q", e.String())
	}
	if _, err := Translate(c, "ghost"); err == nil {
		t.Error("unknown measure translated")
	}
}

// TestTranslateEvalMatchesComputeComposite: evaluating the translated
// algebra must agree with the shared composite-computation path used by
// the engines, measure by measure.
func TestTranslateEvalMatchesComputeComposite(t *testing.T) {
	c := exampleWorkflow(t)
	recs := paperRecords()

	// Engine-style evaluation: basic measures by direct grouping,
	// composites via ComputeComposite, in topological order.
	tables := make([]*Table, len(c.Measures))
	for i, m := range c.Measures {
		if m.Kind == KindBasic {
			tbl := NewTable(c.Schema, m.Gran)
			groups := map[model.Key]agg.Aggregator{}
			for _, r := range recs {
				if m.Filter != nil && !m.Filter.Eval(r.Dims, r.Ms) {
					continue
				}
				k := tbl.Codec.FromBase(r.Dims)
				a, ok := groups[k]
				if !ok {
					a = m.Agg.New()
					groups[k] = a
				}
				if m.FactMeasure >= 0 {
					a.Update(r.Ms[m.FactMeasure])
				} else {
					a.Update(0)
				}
			}
			for k, a := range groups {
				tbl.Rows[k] = a.Final()
			}
			tables[i] = tbl
			continue
		}
		tbl, err := ComputeComposite(c, m, tables)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}

	for _, name := range c.Outputs() {
		e, err := Translate(c, name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Eval(e, recs)
		if err != nil {
			t.Fatal(err)
		}
		i, _ := c.Index(name)
		if !tables[i].Equal(want, 1e-9) {
			t.Errorf("measure %q: engine-path %v != algebra %v", name, rows(t, tables[i]), rows(t, want))
		}
	}
}

func TestSingleSourceCombineTranslation(t *testing.T) {
	s := twoDim(t)
	g := model.Gran{1, model.LevelALL}
	c, err := NewWorkflow(s).
		Basic("a", g, agg.Sum, 0).
		Combine("doubled", []string{"a"}, CombineFunc{Name: "2*v0", Fn: func(v []float64) float64 {
			if agg.IsNull(v[0]) {
				return agg.Null()
			}
			return 2 * v[0]
		}}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Translate(c, "doubled")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(e, paperRecords())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, got, map[string]float64{"A:0": 6, "A:1": 24, "A:2": 12})
}

func TestCompileIdempotent(t *testing.T) {
	// Compile must not mutate the builder: compiling twice (e.g. once
	// via Query and once for DOT rendering) must give the same graph.
	s := twoDim(t)
	w := NewWorkflow(s).
		Basic("a", model.Gran{1, model.LevelALL}, agg.Count, -1).
		Sliding("w", "a", agg.Sum, []Window{{Dim: 0, Lo: -1, Hi: 1}})
	c1, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := w.Compile()
	if err != nil {
		t.Fatalf("second Compile failed: %v", err)
	}
	if len(c1.Measures) != len(c2.Measures) {
		t.Fatalf("measure counts differ: %d vs %d", len(c1.Measures), len(c2.Measures))
	}
	for i := range c1.Measures {
		if c1.Measures[i].Name != c2.Measures[i].Name || c1.Measures[i].Base != c2.Measures[i].Base {
			t.Fatalf("measure %d differs across compiles", i)
		}
	}
}

func TestDescribe(t *testing.T) {
	c := exampleWorkflow(t)
	d := c.Describe()
	for _, frag := range []string{"Count", "sCount", "sibling", "combine", "(hidden)", "<- "} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, d)
		}
	}
}

func TestDOT(t *testing.T) {
	c := exampleWorkflow(t)
	dot := c.DOT()
	for _, frag := range []string{"digraph workflow", "cluster_", "Count", "ratio", "style=dashed", "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q", frag)
		}
	}
}
