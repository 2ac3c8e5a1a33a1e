package model

import (
	"fmt"
	"slices"
	"strings"
)

// Record is one row of a fact table: base-domain codes for every
// dimension attribute, followed by measure attribute values. The
// Dshield running example has Dims = (t, U, T, P) and no measures; the
// synthetic workloads attach measures.
type Record struct {
	Dims []int64
	Ms   []float64
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	c := Record{Dims: make([]int64, len(r.Dims))}
	copy(c.Dims, r.Dims)
	if r.Ms != nil {
		c.Ms = make([]float64, len(r.Ms))
		copy(c.Ms, r.Ms)
	}
	return c
}

// Schema describes a multidimensional dataset: the dimension vector
// X = (X_1, ..., X_d) with hierarchies, plus named measure attributes.
type Schema struct {
	dims     []*Dimension
	measures []string
	dimIdx   map[string]int
}

// NewSchema builds a schema from its dimensions and measure-attribute
// names. Dimension and measure names must be unique.
func NewSchema(dims []*Dimension, measures ...string) (*Schema, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("model: schema needs at least one dimension")
	}
	s := &Schema{
		dims:     dims,
		measures: measures,
		dimIdx:   make(map[string]int, len(dims)),
	}
	for i, d := range dims {
		if d == nil {
			return nil, fmt.Errorf("model: schema dimension %d is nil", i)
		}
		if _, dup := s.dimIdx[d.Name()]; dup {
			return nil, fmt.Errorf("model: duplicate dimension name %q", d.Name())
		}
		s.dimIdx[d.Name()] = i
	}
	for i, m := range measures {
		if m == "" {
			return nil, fmt.Errorf("model: measure attribute %d has empty name", i)
		}
		if slices.Contains(measures[:i], m) {
			return nil, fmt.Errorf("model: duplicate measure attribute %q", m)
		}
		if _, clash := s.dimIdx[m]; clash {
			return nil, fmt.Errorf("model: measure attribute %q clashes with a dimension name", m)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(dims []*Dimension, measures ...string) *Schema {
	s, err := NewSchema(dims, measures...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumDims returns d, the number of dimension attributes.
func (s *Schema) NumDims() int { return len(s.dims) }

// NumMeasures returns the number of measure attributes in fact records.
func (s *Schema) NumMeasures() int { return len(s.measures) }

// Dim returns the i-th dimension.
func (s *Schema) Dim(i int) *Dimension { return s.dims[i] }

// DimIndex resolves a dimension attribute name to its index.
func (s *Schema) DimIndex(name string) (int, error) {
	i, ok := s.dimIdx[name]
	if !ok {
		return 0, fmt.Errorf("model: schema has no dimension %q", name)
	}
	return i, nil
}

// MeasureName returns the name of the i-th measure attribute.
func (s *Schema) MeasureName(i int) string { return s.measures[i] }

// Gran is a granularity vector (X_1:D_1, ..., X_d:D_d): one level per
// dimension, in schema order. A region set [X_1:D_1, ..., X_d:D_d] is
// identified by its Gran.
type Gran []Level

// BaseGran returns the fact table's granularity G_0, with every
// dimension at its base domain.
func (s *Schema) BaseGran() Gran { return make(Gran, len(s.dims)) }

// AllGran returns the coarsest granularity, with every dimension at
// D_ALL (the region set containing the single region ALL^d).
func (s *Schema) AllGran() Gran {
	g := make(Gran, len(s.dims))
	for i, d := range s.dims {
		g[i] = d.ALL()
	}
	return g
}

// MakeGran builds a granularity vector from (dimension name, domain
// name) pairs; unspecified dimensions default to D_ALL, matching the
// paper's shorthand of omitting ALL components.
func (s *Schema) MakeGran(parts map[string]string) (Gran, error) {
	g := s.AllGran()
	for dim, dom := range parts {
		i, err := s.DimIndex(dim)
		if err != nil {
			return nil, err
		}
		l, err := s.dims[i].LevelByName(dom)
		if err != nil {
			return nil, err
		}
		g[i] = l
	}
	return g, nil
}

// Normalize resolves symbolic LevelALL entries and validates ranges.
func (s *Schema) Normalize(g Gran) (Gran, error) {
	if len(g) != len(s.dims) {
		return nil, fmt.Errorf("model: granularity vector has %d components, schema has %d dimensions", len(g), len(s.dims))
	}
	out := make(Gran, len(g))
	for i, l := range g {
		r, err := s.dims[i].Resolve(l)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// GranLeq reports whether g1 <=_G g2: every component of g1 is at the
// same or a finer domain than g2's, so g2 regions can be produced from
// g1 regions by rolling up.
func (s *Schema) GranLeq(g1, g2 Gran) bool {
	for i := range s.dims {
		if g1[i] > g2[i] {
			return false
		}
	}
	return true
}

// GranEq reports whether two granularity vectors are identical.
func GranEq(g1, g2 Gran) bool {
	if len(g1) != len(g2) {
		return false
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the granularity vector.
func (g Gran) Clone() Gran {
	c := make(Gran, len(g))
	copy(c, g)
	return c
}

// GranString renders a granularity vector in the paper's notation,
// omitting D_ALL components, e.g. "(t:Hour, U:IP)".
func (s *Schema) GranString(g Gran) string {
	var b strings.Builder
	b.WriteByte('(')
	first := true
	for i, d := range s.dims {
		if g[i] == d.ALL() {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%s:%s", d.Name(), d.DomainName(g[i]))
	}
	if first {
		b.WriteString("ALL")
	}
	b.WriteByte(')')
	return b.String()
}
