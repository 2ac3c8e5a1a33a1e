package model

import (
	"strings"
	"testing"
)

func buildLocDict(t *testing.T) (*Dimension, *Dict) {
	t.Helper()
	b := NewDictBuilder("loc", "Site", "Region", "Country")
	b.Add("madison", "midwest", "us")
	b.Add("chicago", "midwest", "us")
	b.Add("seattle", "west", "us")
	b.Add("portland", "west", "us")
	b.Add("toronto", "ontario", "ca")
	dim, dict, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return dim, dict
}

func TestDictBasics(t *testing.T) {
	dim, dict := buildLocDict(t)
	if len(dim.levels) != 4 { // 3 concrete + ALL
		t.Fatalf("levels = %d", len(dim.levels))
	}
	if len(dict.labelOf[0]) != 5 || len(dict.labelOf[1]) != 3 || len(dict.labelOf[2]) != 2 {
		t.Fatalf("cards = %d/%d/%d", len(dict.labelOf[0]), len(dict.labelOf[1]), len(dict.labelOf[2]))
	}
	mad, err := dict.LeafCode("madison")
	if err != nil {
		t.Fatal(err)
	}
	region := dim.Up(0, 1, mad)
	if got := dict.Label(1, region); got != "midwest" {
		t.Errorf("madison's region = %q", got)
	}
	country := dim.Up(0, 2, mad)
	if got := dict.Label(2, country); got != "us" {
		t.Errorf("madison's country = %q", got)
	}
	if got := dim.FormatCode(0, mad); got != "madison" {
		t.Errorf("format = %q", got)
	}
	// Siblings share parents.
	chi, _ := dict.LeafCode("chicago")
	if dim.Up(0, 1, chi) != region {
		t.Error("chicago not in madison's region")
	}
	sea, _ := dict.LeafCode("seattle")
	if dim.Up(0, 1, sea) == region {
		t.Error("seattle placed in midwest")
	}
	if dim.Up(0, 2, sea) != country {
		t.Error("seattle not in us")
	}
	tor, _ := dict.LeafCode("toronto")
	if dim.Up(0, 2, tor) == country {
		t.Error("toronto placed in us")
	}
}

func TestDictMonotone(t *testing.T) {
	dim, dict := buildLocDict(t)
	// Codes were assigned in path order, so generalization must be
	// monotone over the whole leaf range.
	codes := make([]int64, len(dict.labelOf[0]))
	for i := range codes {
		codes[i] = int64(i)
	}
	for l := Level(1); l <= 2; l++ {
		prev := int64(-1)
		for _, c := range codes {
			up := dim.Up(0, l, c)
			if up < prev {
				t.Fatalf("level %d: code %d maps to %d < previous %d", l, c, up, prev)
			}
			prev = up
		}
	}
}

func TestDictLookups(t *testing.T) {
	_, dict := buildLocDict(t)
	if _, err := dict.LeafCode("atlantis"); err == nil {
		t.Error("unknown leaf resolved")
	}
	if dict.Label(1, dict.codeOf[1]["west"]) != "west" {
		t.Error("round trip failed")
	}
	if got := dict.Label(1, 99); !strings.HasPrefix(got, "?") {
		t.Errorf("out-of-range label = %q", got)
	}
}

func TestDictBuilderErrors(t *testing.T) {
	if _, _, err := NewDictBuilder("x").Build(); err == nil {
		t.Error("no levels accepted")
	}
	if _, _, err := NewDictBuilder("x", "Site").Build(); err == nil {
		t.Error("no leaves accepted")
	}
	b := NewDictBuilder("x", "Site", "Region")
	b.Add("a") // wrong arity
	if _, _, err := b.Build(); err == nil {
		t.Error("wrong label count accepted")
	}
	b = NewDictBuilder("x", "Site", "Region")
	b.Add("a", "")
	if _, _, err := b.Build(); err == nil {
		t.Error("empty label accepted")
	}
	// Conflicting lineages for the same leaf.
	b = NewDictBuilder("x", "Site", "Region")
	b.Add("a", "r1").Add("a", "r2")
	if _, _, err := b.Build(); err == nil {
		t.Error("conflicting leaf lineage accepted")
	}
	// Conflicting lineages at an inner level.
	b = NewDictBuilder("x", "Site", "Region", "Country")
	b.Add("a", "r", "c1").Add("b", "r", "c2")
	if _, _, err := b.Build(); err == nil {
		t.Error("conflicting region lineage accepted")
	}
	// Duplicate identical Add is fine.
	b = NewDictBuilder("x", "Site", "Region")
	b.Add("a", "r").Add("a", "r")
	if _, _, err := b.Build(); err != nil {
		t.Errorf("idempotent Add rejected: %v", err)
	}
}

func TestDictInSchema(t *testing.T) {
	dim, dict := buildLocDict(t)
	s, err := NewSchema([]*Dimension{dim}, "pm25")
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.MakeGran(map[string]string{"loc": "Region"})
	if err != nil {
		t.Fatal(err)
	}
	c := NewKeyCodec(s, g)
	mad, _ := dict.LeafCode("madison")
	k := c.FromBase([]int64{mad})
	if got := c.Format(k); got != "loc:midwest" {
		t.Errorf("key format = %q", got)
	}
}
