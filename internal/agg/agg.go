// Package agg implements the aggregation functions used to summarize
// regions: distributive functions (COUNT, SUM, MIN, MAX), algebraic
// functions (AVG, VAR, STDDEV) maintained as constant-size register
// tuples, and the holistic COUNT DISTINCT. All engines — single-scan,
// sort/scan, multi-pass, and the relational baseline — share these
// state machines, so cross-engine result equivalence is meaningful.
//
// An aggregator accumulates float64 inputs via Update, can absorb
// another aggregator of the same kind via Merge (required by the
// spilling single-scan engine and the multi-pass combiner), and
// produces its result via Final. Aggregators over an empty input
// produce the SQL-ish convention used by the paper's LEFT OUTER JOIN
// semantics: COUNT-like functions yield 0; value functions (SUM, MIN,
// MAX, AVG, ...) yield NULL, represented as NaN.
package agg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Null is the representation of SQL NULL in measure values: NaN.
// The paper's match join is a LEFT OUTER JOIN, so unmatched regions
// produce NULL measures for value aggregates.
func Null() float64 { return math.NaN() }

// IsNull reports whether a measure value is NULL.
func IsNull(v float64) bool { return math.IsNaN(v) }

// Kind identifies an aggregation function.
type Kind int

const (
	// Count is COUNT(*) over the matched inputs (NULLs included:
	// COUNT(*) counts rows, and update streams deliver rows).
	Count Kind = iota
	// CountNonNull is COUNT(M): counts non-NULL inputs.
	CountNonNull
	// Sum is SUM(M), NULL over the empty input.
	Sum
	// Min is MIN(M).
	Min
	// Max is MAX(M).
	Max
	// Avg is AVG(M), maintained algebraically as (sum, count).
	Avg
	// Var is the population variance, maintained algebraically as
	// (count, mean, M2) via Welford's recurrence.
	Var
	// StdDev is the population standard deviation.
	StdDev
	// CountDistinct is COUNT(DISTINCT M): holistic, maintained as a
	// value set. The relational baseline uses it for the paper's Q1
	// ("we use COUNT(DISTINCT(...)) to generate the aggregation for
	// child regions").
	CountDistinct
	// First keeps the first non-NULL input (stream order dependent;
	// used only where the input order is deterministic).
	First
	// Last keeps the last non-NULL input.
	Last
	// ConstZero ignores its inputs and yields 0. It implements the
	// paper's auxiliary S_base = g_{G,0}(D) tables, which exist only
	// to enumerate the cells of a region set.
	ConstZero
	// Median is the holistic 50th percentile (midpoint of the two
	// central values for even counts). Order-independent, so it is
	// safe in every engine.
	Median
	// P95 is the holistic 95th percentile (nearest-rank).
	P95
)

var kindNames = map[Kind]string{
	Count:         "count",
	CountNonNull:  "countm",
	Sum:           "sum",
	Min:           "min",
	Max:           "max",
	Avg:           "avg",
	Var:           "var",
	StdDev:        "stddev",
	CountDistinct: "countdistinct",
	First:         "first",
	Last:          "last",
	ConstZero:     "zero",
	Median:        "median",
	P95:           "p95",
}

// String returns the lower-case name of the aggregation function.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("agg.Kind(%d)", int(k))
}

// ParseKind resolves an aggregation function name (case-insensitive).
func ParseKind(name string) (Kind, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for k, kn := range kindNames {
		if kn == n {
			return k, nil
		}
	}
	return 0, fmt.Errorf("agg: unknown aggregation function %q", name)
}

// Distributive reports whether the function distributes over union of
// inputs with a single register (Property 1 of Theorem 1 requires a
// distributive function for aggregation collapsing).
func (k Kind) Distributive() bool {
	switch k {
	case Count, CountNonNull, Sum, Min, Max, ConstZero:
		return true
	}
	return false
}

// Algebraic reports whether the function is maintainable with a
// constant number of registers (distributive functions are trivially
// algebraic).
func (k Kind) Algebraic() bool {
	switch k {
	case CountDistinct, First, Last, Median, P95:
		return false
	}
	return true
}

// MergeCommutes reports whether partial aggregates of this kind can be
// combined with Merge in any order and grouping without changing the
// result — the property partition-then-merge evaluation (sharded
// sort/scan, spilling single-scan) relies on. Every kind satisfies it
// except First and Last, whose results depend on stream arrival order
// and therefore on which partition a row landed in.
func (k Kind) MergeCommutes() bool {
	switch k {
	case First, Last:
		return false
	}
	return true
}

// OrderInsensitive reports whether the aggregate of a multiset of
// inputs is the same float64, bit for bit, in whatever order Update
// absorbs them — the property that lets a roll-up read its source table
// in map order instead of sorted key order. It is narrower than
// MergeCommutes: Sum, Avg, Var and StdDev round differently per order,
// Min and Max keep whichever of +0 and -0 arrived first, and the
// quantiles' sort leaves the order of equal-comparing values open.
func (k Kind) OrderInsensitive() bool {
	switch k {
	case Count, CountNonNull, CountDistinct, ConstZero:
		return true
	}
	return false
}

// Aggregator accumulates inputs for one region's measure.
type Aggregator interface {
	// Update absorbs one input value. NULL inputs are ignored by all
	// functions except Count.
	Update(v float64)
	// Merge absorbs the state of another aggregator of the same kind.
	Merge(other Aggregator)
	// Final returns the aggregate over everything absorbed so far.
	Final() float64
	// State serializes the aggregator for spilling; Kind.Restore
	// rebuilds it. The encoding is a plain float64 slice.
	State() []float64
	// Bytes estimates the in-memory footprint of the state, for
	// memory accounting.
	Bytes() int
}

// New creates a fresh aggregator of the given kind.
func (k Kind) New() Aggregator {
	switch k {
	case Count:
		return &countAgg{}
	case CountNonNull:
		return &countNonNullAgg{}
	case Sum:
		return &sumAgg{}
	case Min:
		return &minmaxAgg{min: true}
	case Max:
		return &minmaxAgg{}
	case Avg:
		return &avgAgg{}
	case Var:
		return &varAgg{}
	case StdDev:
		return &varAgg{stddev: true}
	case CountDistinct:
		return &distinctAgg{seen: make(map[float64]struct{})}
	case First:
		return &firstLastAgg{first: true, v: Null()}
	case Last:
		return &firstLastAgg{v: Null()}
	case ConstZero:
		return zeroAgg{}
	case Median:
		return &quantileAgg{q: 0.5, midpoint: true}
	case P95:
		return &quantileAgg{q: 0.95}
	}
	panic(fmt.Sprintf("agg: New on unknown kind %d", int(k)))
}

// Restore rebuilds an aggregator from a State() slice.
func (k Kind) Restore(state []float64) (Aggregator, error) {
	a := k.New()
	if err := loadState(a, state); err != nil {
		return nil, fmt.Errorf("agg: restoring %v: %w", k, err)
	}
	return a, nil
}

func loadState(a Aggregator, state []float64) error {
	switch ag := a.(type) {
	case *countAgg:
		if len(state) != 1 {
			return fmt.Errorf("count state has %d values", len(state))
		}
		ag.n = int64(state[0])
	case *countNonNullAgg:
		return loadState(&ag.countAgg, state)
	case *sumAgg:
		if len(state) != 2 {
			return fmt.Errorf("sum state has %d values", len(state))
		}
		ag.sum, ag.n = state[0], int64(state[1])
	case *minmaxAgg:
		if len(state) != 2 {
			return fmt.Errorf("minmax state has %d values", len(state))
		}
		ag.v, ag.n = state[0], int64(state[1])
	case *avgAgg:
		if len(state) != 2 {
			return fmt.Errorf("avg state has %d values", len(state))
		}
		ag.sum, ag.n = state[0], int64(state[1])
	case *varAgg:
		if len(state) != 3 {
			return fmt.Errorf("var state has %d values", len(state))
		}
		ag.n, ag.mean, ag.m2 = int64(state[0]), state[1], state[2]
	case *distinctAgg:
		for _, v := range state {
			ag.seen[v] = struct{}{}
		}
	case *firstLastAgg:
		if len(state) != 2 {
			return fmt.Errorf("first/last state has %d values", len(state))
		}
		ag.v, ag.set = state[0], state[1] != 0
	case *quantileAgg:
		ag.vals = append(ag.vals, state...)
	case zeroAgg:
		// stateless
	default:
		return fmt.Errorf("unknown aggregator %T", a)
	}
	return nil
}

// countAgg is COUNT(*) and countNonNullAgg COUNT(M): one register each.
// Bytes reports 16 for either, the per-cell figure memory budgets are
// set against.
type countAgg struct{ n int64 }

func (a *countAgg) Update(float64)     { a.n++ }
func (a *countAgg) Merge(o Aggregator) { a.n += o.(*countAgg).n }
func (a *countAgg) Final() float64     { return float64(a.n) }
func (a *countAgg) State() []float64   { return []float64{float64(a.n)} }
func (a *countAgg) Bytes() int         { return 16 }

type countNonNullAgg struct{ countAgg }

func (a *countNonNullAgg) Update(v float64) {
	if !IsNull(v) {
		a.n++
	}
}
func (a *countNonNullAgg) Merge(o Aggregator) { a.n += o.(*countNonNullAgg).n }

type sumAgg struct {
	sum float64
	n   int64
}

func (a *sumAgg) Update(v float64) {
	if !IsNull(v) {
		a.sum += v
		a.n++
	}
}
func (a *sumAgg) Merge(o Aggregator) {
	so := o.(*sumAgg)
	a.sum += so.sum
	a.n += so.n
}
func (a *sumAgg) Final() float64 {
	if a.n == 0 {
		return Null()
	}
	return a.sum
}
func (a *sumAgg) State() []float64 { return []float64{a.sum, float64(a.n)} }
func (a *sumAgg) Bytes() int       { return 16 }

type minmaxAgg struct {
	min bool
	v   float64
	n   int64
}

func (a *minmaxAgg) Update(v float64) {
	if IsNull(v) {
		return
	}
	if a.n == 0 || (a.min && v < a.v) || (!a.min && v > a.v) {
		a.v = v
	}
	a.n++
}
func (a *minmaxAgg) Merge(o Aggregator) {
	mo := o.(*minmaxAgg)
	if mo.n == 0 {
		return
	}
	if a.n == 0 || (a.min && mo.v < a.v) || (!a.min && mo.v > a.v) {
		a.v = mo.v
	}
	a.n += mo.n
}
func (a *minmaxAgg) Final() float64 {
	if a.n == 0 {
		return Null()
	}
	return a.v
}
func (a *minmaxAgg) State() []float64 { return []float64{a.v, float64(a.n)} }
func (a *minmaxAgg) Bytes() int       { return 24 }

type avgAgg struct {
	sum float64
	n   int64
}

func (a *avgAgg) Update(v float64) {
	if !IsNull(v) {
		a.sum += v
		a.n++
	}
}
func (a *avgAgg) Merge(o Aggregator) {
	ao := o.(*avgAgg)
	a.sum += ao.sum
	a.n += ao.n
}
func (a *avgAgg) Final() float64 {
	if a.n == 0 {
		return Null()
	}
	return a.sum / float64(a.n)
}
func (a *avgAgg) State() []float64 { return []float64{a.sum, float64(a.n)} }
func (a *avgAgg) Bytes() int       { return 16 }

type varAgg struct {
	stddev bool
	n      int64
	mean   float64
	m2     float64
}

func (a *varAgg) Update(v float64) {
	if IsNull(v) {
		return
	}
	a.n++
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
}

func (a *varAgg) Merge(o Aggregator) {
	vo := o.(*varAgg)
	if vo.n == 0 {
		return
	}
	if a.n == 0 {
		a.n, a.mean, a.m2 = vo.n, vo.mean, vo.m2
		return
	}
	// Chan et al. parallel variance combination.
	n := a.n + vo.n
	d := vo.mean - a.mean
	a.m2 += vo.m2 + d*d*float64(a.n)*float64(vo.n)/float64(n)
	a.mean += d * float64(vo.n) / float64(n)
	a.n = n
}

func (a *varAgg) Final() float64 {
	if a.n == 0 {
		return Null()
	}
	v := a.m2 / float64(a.n)
	if v < 0 {
		v = 0 // numeric noise guard
	}
	if a.stddev {
		return math.Sqrt(v)
	}
	return v
}
func (a *varAgg) State() []float64 { return []float64{float64(a.n), a.mean, a.m2} }
func (a *varAgg) Bytes() int       { return 32 }

type distinctAgg struct {
	seen map[float64]struct{}
}

func (a *distinctAgg) Update(v float64) {
	if !IsNull(v) {
		a.seen[v] = struct{}{}
	}
}
func (a *distinctAgg) Merge(o Aggregator) {
	for v := range o.(*distinctAgg).seen {
		a.seen[v] = struct{}{}
	}
}
func (a *distinctAgg) Final() float64 { return float64(len(a.seen)) }
func (a *distinctAgg) State() []float64 {
	out := make([]float64, 0, len(a.seen))
	for v := range a.seen {
		out = append(out, v)
	}
	sort.Float64s(out) // deterministic serialization
	return out
}
func (a *distinctAgg) Bytes() int { return 48 + 16*len(a.seen) }

type firstLastAgg struct {
	first bool
	v     float64
	set   bool
}

func (a *firstLastAgg) Update(v float64) {
	if IsNull(v) {
		return
	}
	if a.first && a.set {
		return
	}
	a.v = v
	a.set = true
}
func (a *firstLastAgg) Merge(o Aggregator) {
	fo := o.(*firstLastAgg)
	if !fo.set {
		return
	}
	if a.first && a.set {
		return
	}
	a.v = fo.v
	a.set = true
}
func (a *firstLastAgg) Final() float64 {
	if !a.set {
		return Null()
	}
	return a.v
}
func (a *firstLastAgg) State() []float64 {
	s := 0.0
	if a.set {
		s = 1
	}
	return []float64{a.v, s}
}
func (a *firstLastAgg) Bytes() int { return 24 }

// quantileAgg keeps every non-NULL input (holistic). Median uses the
// midpoint convention for even counts; other quantiles use
// nearest-rank. Results are order-independent.
type quantileAgg struct {
	q        float64
	midpoint bool
	vals     []float64
}

func (a *quantileAgg) Update(v float64) {
	if !IsNull(v) {
		a.vals = append(a.vals, v)
	}
}

func (a *quantileAgg) Merge(o Aggregator) {
	a.vals = append(a.vals, o.(*quantileAgg).vals...)
}

func (a *quantileAgg) Final() float64 {
	n := len(a.vals)
	if n == 0 {
		return Null()
	}
	sorted := make([]float64, n)
	copy(sorted, a.vals)
	sort.Float64s(sorted)
	if a.midpoint && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	rank := int(math.Ceil(a.q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func (a *quantileAgg) State() []float64 {
	out := make([]float64, len(a.vals))
	copy(out, a.vals)
	sort.Float64s(out) // deterministic serialization
	return out
}

func (a *quantileAgg) Bytes() int { return 48 + 8*len(a.vals) }

type zeroAgg struct{}

func (zeroAgg) Update(float64)   {}
func (zeroAgg) Merge(Aggregator) {}
func (zeroAgg) Final() float64   { return 0 }
func (zeroAgg) State() []float64 { return nil }
func (zeroAgg) Bytes() int       { return 8 }
