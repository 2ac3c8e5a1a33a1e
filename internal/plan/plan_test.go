package plan

import (
	"strings"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/model"
)

// netSchema is the Table 1 schema: t, U, T, P.
func netSchema(t *testing.T) *model.Schema {
	t.Helper()
	s, err := model.NewSchema([]*model.Dimension{
		model.TimeDimension("t"),
		model.IPv4Dimension("U"),
		model.IPv4Dimension("T"),
		model.PortDimension("P"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func lvl(t *testing.T, s *model.Schema, dim int, name string) model.Level {
	t.Helper()
	l, err := s.Dim(dim).LevelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestPaperOrderExample1 reproduces the Section 5.3.1 example:
// S = g_{(t:Day, T:IP, U:IP),count}(D) under sort key
// <t:Month, T:IP, U:IP>. The finalized entries are ordered by
// <t:Month, T:IP, U:IP> and the footprint is ~31 (days per month).
func TestPaperOrderExample1(t *testing.T) {
	s := netSchema(t)
	day := lvl(t, s, 0, "Day")
	g, err := s.MakeGran(map[string]string{"t": "Day", "T": "IP", "U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewWorkflow(s).Basic("S", g, agg.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	month := lvl(t, s, 0, "Month")
	key := model.SortKey{{Dim: 0, Lvl: month}, {Dim: 2, Lvl: 0}, {Dim: 1, Lvl: 0}}
	pl, err := Build(c, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := pl.Nodes[0]
	if got := n.OutOrder.String(s); got != "<t:Month, T:IP, U:IP>" {
		t.Errorf("out order = %s", got)
	}
	if n.EstCells < 28 || n.EstCells > 32 {
		t.Errorf("estimated cells = %v, want ~31 (days per month)", n.EstCells)
	}
	_ = day
	if len(n.Arcs) != 1 || n.Arcs[0].Kind != ArcFact {
		t.Fatalf("arcs = %+v", n.Arcs)
	}
	for _, sh := range n.Arcs[0].Shift {
		if sh != 0 {
			t.Errorf("unexpected shift %d on a plain aggregation", sh)
		}
	}
}

// TestPaperOrderExample2: same measure under sort key
// <t:Hour, T:IP, U:IP> — entries finalize only when the day switches,
// so the output order degrades to <t:Day> and the footprint is the
// day's worth of IP combinations (full cardinalities).
func TestPaperOrderExample2(t *testing.T) {
	s := netSchema(t)
	g, err := s.MakeGran(map[string]string{"t": "Day", "T": "IP", "U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewWorkflow(s).Basic("S", g, agg.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	hour := lvl(t, s, 0, "Hour")
	key := model.SortKey{{Dim: 0, Lvl: hour}, {Dim: 2, Lvl: 0}, {Dim: 1, Lvl: 0}}
	pl, err := Build(c, key, &Stats{BaseCard: []float64{0, 1000, 1000, 0}})
	if err != nil {
		t.Fatal(err)
	}
	n := pl.Nodes[0]
	if got := n.OutOrder.String(s); got != "<t:Day>" {
		t.Errorf("out order = %s, want <t:Day>", got)
	}
	// T and U are uncovered: footprint ~ 1000 * 1000.
	if n.EstCells < 1e5 || n.EstCells > 1e7 {
		t.Errorf("estimated cells = %v, want ~1e6", n.EstCells)
	}
}

// TestPaperSlackExample: S_ratio = S_2 |x|_pc S_1 with the data sorted
// by <t:Day> (the Section 5.3.1 slack example). The parent stream
// (monthly) forces the ratio node's comparable key for that arc to
// coarsen to months.
func TestPaperSlackExample(t *testing.T) {
	s := netSchema(t)
	gDay, _ := s.MakeGran(map[string]string{"t": "Day"})
	gMonth, _ := s.MakeGran(map[string]string{"t": "Month"})
	day := lvl(t, s, 0, "Day")
	c, err := core.NewWorkflow(s).
		Basic("S2", gDay, agg.Count, -1).
		Rollup("S1", gMonth, "S2", agg.Sum).
		FromParent("parent", gDay, "S1", agg.Sum).
		Combine("ratio", []string{"S2", "parent"}, core.Ratio(0, 1)).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(c, model.SortKey{{Dim: 0, Lvl: day}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// S1 (monthly rollup of a daily stream): cmp coarsens to Month.
	i1, _ := c.Index("S1")
	if got := pl.Nodes[i1].OutOrder.String(s); got != "<t:Month>" {
		t.Errorf("S1 out order = %s", got)
	}
	// parent (pc join): source arc comparable key is at Month, base
	// arc at Day; the node's output order degrades to Month.
	ip, _ := c.Index("parent")
	if got := pl.Nodes[ip].OutOrder.String(s); got != "<t:Month>" {
		t.Errorf("parent out order = %s", got)
	}
	var kinds []string
	for _, a := range pl.Nodes[ip].Arcs {
		kinds = append(kinds, a.Kind.String()+":"+a.CmpKey.String(s))
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "source:<t:Month>") || !strings.Contains(joined, "base:<t:Day>") {
		t.Errorf("parent arcs = %s", joined)
	}
	// ratio combines S2 (day order) with parent (month order): its
	// entries can only be emitted in month batches — the paper's
	// (-31, 0) slack expressed as a coarsened comparable order.
	ir, _ := c.Index("ratio")
	if got := pl.Nodes[ir].OutOrder.String(s); got != "<t:Month>" {
		t.Errorf("ratio out order = %s, want <t:Month>", got)
	}
}

// TestSiblingShift: a six-hour trailing window (Example 4) under an
// hour-sorted dataset needs a watermark shift of 5 hours; under a
// day-sorted dataset the shift coarsens to ceil(5/24) = 1 day.
func TestSiblingShift(t *testing.T) {
	s := netSchema(t)
	gHour, _ := s.MakeGran(map[string]string{"t": "Hour"})
	hour := lvl(t, s, 0, "Hour")
	day := lvl(t, s, 0, "Day")
	c, err := core.NewWorkflow(s).
		Basic("cnt", gHour, agg.Count, -1).
		Sliding("avg", "cnt", agg.Avg, []core.Window{{Dim: 0, Lo: 0, Hi: 5}}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	iAvg, _ := c.Index("avg")

	pl, err := Build(c, model.SortKey{{Dim: 0, Lvl: hour}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srcArc := pl.Nodes[iAvg].Arcs[0]
	if srcArc.Kind != ArcSource || len(srcArc.Shift) != 1 || srcArc.Shift[0] != 5 {
		t.Errorf("hour-sorted sibling arc = %+v, want shift 5", srcArc)
	}

	pl, err = Build(c, model.SortKey{{Dim: 0, Lvl: day}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srcArc = pl.Nodes[iAvg].Arcs[0]
	if len(srcArc.Shift) != 1 || srcArc.Shift[0] != 1 {
		t.Errorf("day-sorted sibling arc shift = %v, want ceil(5/24)=1", srcArc.Shift)
	}
	if got := srcArc.CmpKey.String(s); got != "<t:Day>" {
		t.Errorf("day-sorted sibling cmp = %s", got)
	}
	// Backward-only windows need no shift.
	c2, err := core.NewWorkflow(s).
		Basic("cnt", gHour, agg.Count, -1).
		Sliding("trail", "cnt", agg.Avg, []core.Window{{Dim: 0, Lo: -5, Hi: 0}}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	pl, err = Build(c2, model.SortKey{{Dim: 0, Lvl: hour}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := c2.Index("trail")
	if sh := pl.Nodes[it].Arcs[0].Shift[0]; sh != 0 {
		t.Errorf("backward window shift = %d, want 0", sh)
	}
}

// TestGranAtALLTruncatesKey: a measure with t at D_ALL under a
// t-leading sort key has no ordering information at all.
func TestGranAtALLTruncatesKey(t *testing.T) {
	s := netSchema(t)
	g, _ := s.MakeGran(map[string]string{"U": "/24"})
	day := lvl(t, s, 0, "Day")
	c, err := core.NewWorkflow(s).Basic("perSrc", g, agg.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(c, model.SortKey{{Dim: 0, Lvl: day}, {Dim: 1, Lvl: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.Nodes[0].Arcs[0].CmpKey); got != 0 {
		t.Errorf("cmp key has %d parts, want 0", got)
	}
	// With U leading instead, the key covers the measure.
	pl, err = Build(c, model.SortKey{{Dim: 1, Lvl: 0}, {Dim: 0, Lvl: day}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l24 := lvl(t, s, 1, "/24")
	want := model.SortKey{{Dim: 1, Lvl: l24}}
	got := pl.Nodes[0].Arcs[0].CmpKey
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("cmp key = %s, want %s", got.String(s), want.String(s))
	}
}

func TestBuildErrors(t *testing.T) {
	s := netSchema(t)
	g, _ := s.MakeGran(map[string]string{"t": "Hour"})
	c, err := core.NewWorkflow(s).Basic("cnt", g, agg.Count, -1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, model.SortKey{{Dim: 9, Lvl: 0}}, nil); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, err := Build(c, model.SortKey{{Dim: 0, Lvl: 0}, {Dim: 0, Lvl: 1}}, nil); err == nil {
		t.Error("duplicate dimension accepted")
	}
}

func TestStatsDimCardDefaults(t *testing.T) {
	s := netSchema(t)
	var st *Stats
	if got := st.DimCard(s, 0, 0); got != 1e6 {
		t.Errorf("nil stats base card = %v", got)
	}
	st = &Stats{BaseCard: []float64{100}}
	day := lvl(t, s, 0, "Day")
	if got := st.DimCard(s, 0, day); got != 1 {
		t.Errorf("card clamped = %v, want 1", got)
	}
}
