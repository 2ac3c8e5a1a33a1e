// Package model implements the multidimensional data model of
// "Composite Subset Measures" (VLDB 2006): dimension attributes with
// linear domain generalization hierarchies, value generalization
// functions, granularity vectors, regions and region-set keys, and the
// total order over extended domains guaranteed by Proposition 1.
//
// Values in every domain are represented as dense int64 "codes".
// Generalization between adjacent domains is a monotone non-decreasing
// function of the code, which is exactly the property Proposition 1
// needs: sorting by a code at any level is consistent with sorting by
// the code at every coarser level, so byte-encoded region keys can be
// compared lexicographically during streaming evaluation.
package model

import (
	"fmt"
	"math"
	"strconv"
)

// Level identifies one domain within a dimension's linear hierarchy.
// Level 0 is the base domain; the last level is D_ALL.
type Level int

// LevelALL is a symbolic level that resolves to the dimension's D_ALL
// level (the coarsest domain, with the single value ALL).
const LevelALL Level = -1

// DomainSpec describes a single domain in a linear hierarchy.
type DomainSpec struct {
	// Name of the domain, e.g. "Hour" or "/24".
	Name string

	// UpOne maps a code in this domain to the code of its
	// generalization in the next coarser domain. It must be monotone
	// non-decreasing. It is nil for the D_ALL level.
	UpOne func(int64) int64

	// Div, when positive, declares in place of UpOne that this domain
	// generalizes by floor division: a code c maps to floor(c / Div),
	// negative codes included (Second -> Hour, a uniform fan-out, an IP
	// prefix's >> 8). Up crosses a run of such levels with one division by
	// the product of their divisors instead of a call per level.
	Div int64

	// Fanout is the average number of codes in this domain that map to
	// a single code of the next coarser domain. It is used only for
	// memory-footprint estimation (the card() function of Table 6), so
	// it need not be exact. It must be >= 1.
	Fanout float64

	// MinFanout is a lower bound on the number of codes in this
	// domain that map to a single code of the next coarser domain.
	// Watermark shifts for sibling windows divide by it, so it must be
	// a true lower bound for correctness when the window level differs
	// from the sort level (e.g. 28 for Day -> Month). Zero defaults to
	// Fanout rounded down (exact for uniform hierarchies).
	MinFanout int64

	// Format renders a code as a human-readable string. If nil, codes
	// print as decimal integers.
	Format func(int64) string
}

// Dimension is a dimension attribute together with its linear domain
// generalization hierarchy. The hierarchy is a chain
// D_base <_D D_1 <_D ... <_D D_ALL, as the paper restricts attention to
// linear hierarchies (non-linear ones, like Week, are excluded).
type Dimension struct {
	name   string
	levels []DomainSpec
	// div[from*len(levels)+to] is the product of the Div of every level
	// in [from, to) when all of them declare one (1 when from == to), and
	// 0 when some level does not or the product overflows: the pairs Up
	// answers with a single floor division.
	div []int64
}

// NewDimension constructs a dimension from base-to-coarse domain specs.
// The final D_ALL level is appended automatically; callers list only
// the concrete domains, base first. Every listed spec must have an
// UpOne function or a divisor (mapping into the next listed domain, or
// into D_ALL for the last one — if the last spec has neither, a
// constant-zero mapping to ALL is supplied).
func NewDimension(name string, specs ...DomainSpec) (*Dimension, error) {
	if name == "" {
		return nil, fmt.Errorf("model: dimension name must be non-empty")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("model: dimension %q needs at least a base domain", name)
	}
	levels := make([]DomainSpec, 0, len(specs)+1)
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("model: dimension %q: level %d has empty domain name", name, i)
		}
		if s.Fanout < 1 {
			if s.Fanout != 0 {
				return nil, fmt.Errorf("model: dimension %q: domain %q has fanout %v < 1", name, s.Name, s.Fanout)
			}
			s.Fanout = 1
		}
		if s.MinFanout == 0 {
			s.MinFanout = int64(s.Fanout)
		}
		if s.MinFanout < 1 || float64(s.MinFanout) > s.Fanout {
			return nil, fmt.Errorf("model: dimension %q: domain %q has min fanout %d outside [1, %v]", name, s.Name, s.MinFanout, s.Fanout)
		}
		if s.Div < 0 || (s.Div > 0 && s.UpOne != nil) {
			return nil, fmt.Errorf("model: dimension %q: domain %q: Div must be >= 0 and takes the place of UpOne, so set only one of them", name, s.Name)
		}
		if div := s.Div; div > 0 {
			s.UpOne = func(c int64) int64 { return floorDiv(c, div) }
		}
		if s.UpOne == nil {
			s.UpOne = func(int64) int64 { return 0 }
		}
		levels = append(levels, s)
	}
	levels = append(levels, DomainSpec{
		Name:      "ALL",
		Fanout:    1,
		MinFanout: 1,
		Format:    func(int64) string { return "ALL" },
	})
	n := len(levels)
	div := make([]int64, n*n)
	for from := 0; from < n; from++ {
		prod := int64(1)
		for to := from; to < n && prod > 0; to++ {
			div[from*n+to] = prod
			if d := levels[to].Div; d > 0 && prod <= math.MaxInt64/d {
				prod *= d
			} else {
				prod = 0
			}
		}
	}
	return &Dimension{name: name, levels: levels, div: div}, nil
}

// MustDimension is NewDimension that panics on error; it is intended
// for statically-known hierarchies.
func MustDimension(name string, specs ...DomainSpec) *Dimension {
	d, err := NewDimension(name, specs...)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the dimension attribute's name.
func (d *Dimension) Name() string { return d.name }

// ALL returns the level of the D_ALL domain.
func (d *Dimension) ALL() Level { return Level(len(d.levels) - 1) }

// Resolve maps the symbolic LevelALL to the concrete D_ALL level and
// validates the level range.
func (d *Dimension) Resolve(l Level) (Level, error) {
	if l == LevelALL {
		return d.ALL(), nil
	}
	if l < 0 || int(l) >= len(d.levels) {
		return 0, fmt.Errorf("model: dimension %q has no level %d (valid 0..%d)", d.name, l, len(d.levels)-1)
	}
	return l, nil
}

// DomainName returns the name of the domain at the given level.
func (d *Dimension) DomainName(l Level) string {
	if l == LevelALL {
		l = d.ALL()
	}
	return d.levels[l].Name
}

// LevelByName returns the level whose domain has the given name.
func (d *Dimension) LevelByName(domain string) (Level, error) {
	for i, s := range d.levels {
		if s.Name == domain {
			return Level(i), nil
		}
	}
	return 0, fmt.Errorf("model: dimension %q has no domain named %q", d.name, domain)
}

// Up applies the value generalization function gamma, mapping a code at
// level `from` to the corresponding code at level `to`. It requires
// from <= to; generalization functions are consistent by construction
// (they compose along the chain), matching the consistency requirement
// in Section 2.1 of the paper.
func (d *Dimension) Up(from, to Level, code int64) int64 {
	if from == to {
		return code
	}
	if from == LevelALL {
		from = d.ALL()
	}
	if to == LevelALL {
		to = d.ALL()
	}
	if from > to {
		panic(fmt.Sprintf("model: Up on dimension %q from level %d to finer level %d", d.name, from, to))
	}
	// floor(floor(c/a)/b) = floor(c/(a*b)) for positive a and b, so a chain
	// of divisor levels is one division.
	if div := d.div[int(from)*len(d.levels)+int(to)]; div != 0 {
		return floorDiv(code, div)
	}
	for l := from; l < to; l++ {
		code = d.levels[l].UpOne(code)
	}
	return code
}

// Fanout returns card(D_from, D_to): the (estimated) number of codes at
// level `from` that generalize to a single code at level `to`. Used by
// the order/slack algorithm of Table 6 and by footprint estimation.
func (d *Dimension) Fanout(from, to Level) float64 {
	if from == LevelALL {
		from = d.ALL()
	}
	if to == LevelALL {
		to = d.ALL()
	}
	if from > to {
		panic(fmt.Sprintf("model: Fanout on dimension %q from level %d to finer level %d", d.name, from, to))
	}
	f := 1.0
	for l := from; l < to; l++ {
		f *= d.levels[l].Fanout
	}
	return f
}

// MinFanout returns a lower bound on the number of codes at level
// `from` that generalize to a single code at level `to`. Unlike Fanout
// it is a correctness-critical bound (watermark shifts divide by it).
func (d *Dimension) MinFanout(from, to Level) int64 {
	if from == LevelALL {
		from = d.ALL()
	}
	if to == LevelALL {
		to = d.ALL()
	}
	if from > to {
		panic(fmt.Sprintf("model: MinFanout on dimension %q from level %d to finer level %d", d.name, from, to))
	}
	f := int64(1)
	for l := from; l < to; l++ {
		f *= d.levels[l].MinFanout
	}
	return f
}

// FormatCode renders a code at the given level for human consumption.
func (d *Dimension) FormatCode(l Level, code int64) string {
	if l == LevelALL {
		l = d.ALL()
	}
	if f := d.levels[l].Format; f != nil {
		return f(code)
	}
	return strconv.FormatInt(code, 10)
}

// CheckMonotone verifies that UpOne is monotone non-decreasing over the
// supplied sample of codes at the given level. It is a testing aid for
// custom hierarchies; built-in hierarchies are monotone by
// construction.
func (d *Dimension) CheckMonotone(l Level, codes []int64) error {
	if l == LevelALL {
		l = d.ALL()
	}
	if int(l) >= len(d.levels)-1 {
		return nil // ALL level has no UpOne
	}
	up := d.levels[l].UpOne
	for i := 0; i+1 < len(codes); i++ {
		a, b := codes[i], codes[i+1]
		if a > b {
			a, b = b, a
		}
		if up(a) > up(b) {
			return fmt.Errorf("model: dimension %q level %d (%s): UpOne(%d)=%d > UpOne(%d)=%d violates monotonicity",
				d.name, l, d.levels[l].Name, a, up(a), b, up(b))
		}
	}
	return nil
}

// FixedFanout builds a dimension with a uniform-fanout linear
// hierarchy, as used by the paper's synthetic workload: each value in a
// domain covers exactly `fanout` distinct values of the next finer
// domain. `depth` is the number of concrete domains (excluding D_ALL);
// the base domain therefore has fanout^(depth-1) values that generalize
// to a single top-level value, and base codes 0..card-1 are dense.
//
// The paper's synthetic setup is FixedFanout(name, 3, 10): four domains
// counting D_ALL, each covering 10 values of its sub-domain.
func FixedFanout(name string, depth, fanout int) *Dimension {
	if depth < 1 || fanout < 1 {
		panic("model: FixedFanout requires depth >= 1 and fanout >= 1")
	}
	f := int64(fanout)
	specs := make([]DomainSpec, depth)
	for i := 0; i < depth; i++ {
		specs[i] = DomainSpec{
			Name:   fmt.Sprintf("L%d", i),
			Div:    f,
			Fanout: float64(fanout),
		}
	}
	// The coarsest concrete domain maps to ALL.
	specs[depth-1].Div = 0
	return MustDimension(name, specs...)
}

// floorDiv is integer division rounding toward negative infinity, so
// generalization stays monotone for negative codes too.
func floorDiv(a, b int64) int64 {
	q := a / b
	if r := a - q*b; r != 0 && (r^b) < 0 {
		q--
	}
	return q
}
