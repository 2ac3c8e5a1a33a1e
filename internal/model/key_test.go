package model

import (
	"sort"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]*Dimension{
		FixedFanout("A", 3, 10),
		FixedFanout("B", 3, 10),
	}, "m")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func netSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]*Dimension{
		TimeDimension("t"),
		IPv4Dimension("U"),
		IPv4Dimension("T"),
		PortDimension("P"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(nil); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema([]*Dimension{nil}); err == nil {
		t.Error("nil dimension accepted")
	}
	a := FixedFanout("A", 2, 3)
	if _, err := NewSchema([]*Dimension{a, a}); err == nil {
		t.Error("duplicate dimension accepted")
	}
	if _, err := NewSchema([]*Dimension{a}, "m", "m"); err == nil {
		t.Error("duplicate measure accepted")
	}
	if _, err := NewSchema([]*Dimension{a}, "A"); err == nil {
		t.Error("measure/dimension name clash accepted")
	}
	if _, err := NewSchema([]*Dimension{a}, ""); err == nil {
		t.Error("empty measure name accepted")
	}
}

func TestMakeGranAndString(t *testing.T) {
	s := netSchema(t)
	g, err := s.MakeGran(map[string]string{"t": "Hour", "U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.GranString(g); got != "(t:Hour, U:IP)" {
		t.Errorf("GranString = %q", got)
	}
	if got := s.GranString(s.AllGran()); got != "(ALL)" {
		t.Errorf("all-gran string = %q", got)
	}
	if _, err := s.MakeGran(map[string]string{"zz": "Hour"}); err == nil {
		t.Error("unknown dimension accepted")
	}
	if _, err := s.MakeGran(map[string]string{"t": "Fortnight"}); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestGranLeq(t *testing.T) {
	s := testSchema(t)
	fine := Gran{0, 0}
	mid := Gran{1, 0}
	coarse := Gran{1, 2}
	if !s.GranLeq(fine, mid) || !s.GranLeq(mid, coarse) || !s.GranLeq(fine, coarse) {
		t.Error("expected fine <= mid <= coarse")
	}
	if s.GranLeq(coarse, fine) {
		t.Error("coarse <= fine")
	}
	if !s.GranLeq(fine, fine) {
		t.Error("not reflexive")
	}
	incomparable1, incomparable2 := Gran{1, 0}, Gran{0, 1}
	if s.GranLeq(incomparable1, incomparable2) || s.GranLeq(incomparable2, incomparable1) {
		t.Error("incomparable grans ordered")
	}
}

func TestKeyCodecRoundTrip(t *testing.T) {
	s := testSchema(t)
	g, _ := s.Normalize(Gran{1, 0})
	c := NewKeyCodec(s, g)
	if c.Width() != 2 || c.KeyBytes() != 16 {
		t.Fatalf("width=%d bytes=%d", c.Width(), c.KeyBytes())
	}
	k := c.FromBase([]int64{523, 77})
	codes := c.Decode(k)
	if codes[0] != 52 || codes[1] != 77 {
		t.Errorf("decoded %v, want [52 77]", codes)
	}
	if k2 := c.FromCodes([]int64{52, 77}); k2 != k {
		t.Error("FromCodes != FromBase path")
	}
	if got := c.CodeAt(k, 0); got != 52 {
		t.Errorf("CodeAt(0) = %d", got)
	}
	if got := c.CodeAt(k, 1); got != 77 {
		t.Errorf("CodeAt(1) = %d", got)
	}
	k3 := c.WithCodeAt(k, 1, 78)
	if got := c.CodeAt(k3, 1); got != 78 {
		t.Errorf("WithCodeAt: %d", got)
	}
	if c.CodeAt(k3, 0) != 52 {
		t.Error("WithCodeAt disturbed other component")
	}
	// A reused FullDecodeInto buffer carries nothing over: a codec with a
	// D_ALL dimension must overwrite the previous key's code there with 0.
	buf := make([]int64, s.NumDims())
	c.FullDecodeInto(buf, k)
	gAll, _ := s.Normalize(Gran{1, LevelALL})
	cAll := NewKeyCodec(s, gAll)
	cAll.FullDecodeInto(buf, cAll.FromBase([]int64{523, 77}))
	if want := cAll.FullDecode(cAll.FromBase([]int64{523, 77})); buf[0] != 52 || buf[1] != 0 || want[0] != buf[0] || want[1] != buf[1] {
		t.Errorf("FullDecodeInto over a used buffer = %v, FullDecode = %v, want [52 0]", buf, want)
	}
}

func TestKeyOrderMatchesNumericOrder(t *testing.T) {
	// Byte order of encoded keys must equal numeric order of codes,
	// including negative codes.
	s := testSchema(t)
	g, _ := s.Normalize(Gran{0, LevelALL})
	c := NewKeyCodec(s, g)
	vals := []int64{-1 << 40, -5, -1, 0, 1, 7, 1 << 40}
	for i := 0; i+1 < len(vals); i++ {
		k1 := c.FromCodes([]int64{vals[i]})
		k2 := c.FromCodes([]int64{vals[i+1]})
		if !(k1 < k2) {
			t.Errorf("key(%d) !< key(%d)", vals[i], vals[i+1])
		}
	}
}

func TestKeyUpTo(t *testing.T) {
	s := testSchema(t)
	fineG, _ := s.Normalize(Gran{0, 0})
	coarseG, _ := s.Normalize(Gran{1, LevelALL})
	fine := NewKeyCodec(s, fineG)
	coarse := NewKeyCodec(s, coarseG)
	k := fine.FromBase([]int64{523, 77})
	up := fine.UpTo(k, coarse)
	codes := coarse.Decode(up)
	if len(codes) != 1 || codes[0] != 52 {
		t.Errorf("UpTo = %v, want [52]", codes)
	}
}

func TestKeyUpToPreservesOrderQuick(t *testing.T) {
	// Proposition 1 at the key level: coarsening the FIRST key
	// component and truncating the rest preserves order — k1 <= k2
	// implies UpTo(k1) <= UpTo(k2) when the coarse granularity keeps
	// only (a coarsening of) the leading component. This prefix form
	// is what the streaming planner relies on.
	s := testSchema(t)
	fineG, _ := s.Normalize(Gran{0, 0})
	coarseG, _ := s.Normalize(Gran{2, LevelALL})
	fine := NewKeyCodec(s, fineG)
	coarse := NewKeyCodec(s, coarseG)
	f := func(a1, b1, a2, b2 int16) bool {
		k1 := fine.FromBase([]int64{int64(a1), int64(b1)})
		k2 := fine.FromBase([]int64{int64(a2), int64(b2)})
		if k1 > k2 {
			k1, k2 = k2, k1
		}
		return fine.UpTo(k1, coarse) <= fine.UpTo(k2, coarse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyUpToNonPrefixCounterexample(t *testing.T) {
	// The overbroad property is FALSE: coarsening a non-final
	// component without truncation can reorder keys, because
	// collapsing the leading component to equality exposes the
	// (unconstrained) comparison of later components. This is why
	// plan comparable keys truncate after a coarsened part.
	s := testSchema(t)
	fineG, _ := s.Normalize(Gran{0, 0})
	coarseG, _ := s.Normalize(Gran{2, 1})
	fine := NewKeyCodec(s, fineG)
	coarse := NewKeyCodec(s, coarseG)
	k1 := fine.FromBase([]int64{100, 50}) // A-group 1
	k2 := fine.FromBase([]int64{199, 10}) // same A-group at L2, smaller B
	if !(k1 < k2) {
		t.Fatal("setup: k1 should precede k2")
	}
	if fine.UpTo(k1, coarse) <= fine.UpTo(k2, coarse) {
		t.Fatal("expected order inversion under non-prefix coarsening; the planner's truncation rule would be unnecessary")
	}
}

func TestDimPos(t *testing.T) {
	s := netSchema(t)
	g, err := s.MakeGran(map[string]string{"t": "Hour", "T": "/24"})
	if err != nil {
		t.Fatal(err)
	}
	c := NewKeyCodec(s, g)
	if c.DimPos(0) != 0 { // t encoded first
		t.Errorf("DimPos(t) = %d", c.DimPos(0))
	}
	if c.DimPos(1) != -1 { // U at ALL
		t.Errorf("DimPos(U) = %d", c.DimPos(1))
	}
	if c.DimPos(2) != 1 { // T second encoded
		t.Errorf("DimPos(T) = %d", c.DimPos(2))
	}
	if c.DimPos(3) != -1 { // P at ALL
		t.Errorf("DimPos(P) = %d", c.DimPos(3))
	}
}

func TestKeyFormat(t *testing.T) {
	s := netSchema(t)
	g, _ := s.MakeGran(map[string]string{"t": "Day", "T": "/24"})
	c := NewKeyCodec(s, g)
	k := c.FromCodes([]int64{DayCode(2002, 2, 14), IPCode(10, 20, 30, 0) >> 8})
	if got := c.Format(k); got != "t:2002-02-14, T:10.20.30.*" {
		t.Errorf("Format = %q", got)
	}
	allC := NewKeyCodec(s, s.AllGran())
	if got := allC.Format(allC.FromCodes(nil)); got != "ALL" {
		t.Errorf("ALL format = %q", got)
	}
}

func TestSortKeyRecordLess(t *testing.T) {
	s := testSchema(t)
	k, err := SortKey{{Dim: 0, Lvl: 1}, {Dim: 1, Lvl: 0}}.Normalize(s)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Dims: []int64{523, 9}},
		{Dims: []int64{521, 3}}, // same level-1 A code (52), smaller B
		{Dims: []int64{100, 5}},
		{Dims: []int64{999, 0}},
	}
	sort.Slice(recs, func(i, j int) bool { return k.RecordLess(s, &recs[i], &recs[j]) })
	// Expected: A-level1 groups 10 (100), 52 (521/523 by B), 99 (999).
	want := [][]int64{{100, 5}, {521, 3}, {523, 9}, {999, 0}}
	for i := range want {
		if recs[i].Dims[0] != want[i][0] || recs[i].Dims[1] != want[i][1] {
			t.Fatalf("sorted[%d] = %v, want %v", i, recs[i].Dims, want[i])
		}
	}
}

func TestSortKeyNormalizeErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := (SortKey{{Dim: 5, Lvl: 0}}).Normalize(s); err == nil {
		t.Error("bad dim accepted")
	}
	if _, err := (SortKey{{Dim: 0, Lvl: 99}}).Normalize(s); err == nil {
		t.Error("bad level accepted")
	}
	k, err := (SortKey{{Dim: 0, Lvl: LevelALL}}).Normalize(s)
	if err != nil {
		t.Fatal(err)
	}
	if k[0].Lvl != s.Dim(0).ALL() {
		t.Error("LevelALL not resolved")
	}
}

func TestSortKeyString(t *testing.T) {
	s := netSchema(t)
	hour, _ := s.Dim(0).LevelByName("Hour")
	k := SortKey{{Dim: 0, Lvl: hour}, {Dim: 2, Lvl: 0}}
	if got := k.String(s); got != "<t:Hour, T:IP>" {
		t.Errorf("String = %q", got)
	}
}

func TestUpCoords(t *testing.T) {
	s := testSchema(t)
	g, _ := s.Normalize(Gran{1, LevelALL})
	c := NewKeyCodec(s, g)
	got := c.FullDecode(c.FromBase([]int64{523, 77}))
	if got[0] != 52 || got[1] != 0 {
		t.Errorf("base coordinates mapped up to %v", got)
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{Dims: []int64{1, 2}, Ms: []float64{3.5}}
	c := r.Clone()
	c.Dims[0] = 9
	c.Ms[0] = 0
	if r.Dims[0] != 1 || r.Ms[0] != 3.5 {
		t.Error("Clone aliases the original")
	}
	empty := Record{Dims: []int64{1}}
	if ec := empty.Clone(); ec.Ms != nil {
		t.Error("Clone invented measures")
	}
}
