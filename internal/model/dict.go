package model

import (
	"fmt"
	"sort"
	"strings"
)

// Dictionary hierarchies encode categorical dimensions — site ->
// region -> country, product -> category, and the like — as dense
// integer codes that satisfy Proposition 1. Codes are assigned in
// lexicographic path order, so a child's code order is consistent with
// its ancestors' at every level, making the generalization functions
// monotone by construction (the encoding trick the paper suggests:
// "we can encode the values in the extended domain so as to impose
// such an ordering").
//
// Build one with DictBuilder:
//
//	b := model.NewDictBuilder("loc", "Site", "Region")
//	b.Add("madison", "midwest")
//	b.Add("chicago", "midwest")
//	b.Add("seattle", "west")
//	dim, dict, err := b.Build()
//
// Records then store dict.LeafCode("madison"); formatted output shows
// the original labels.

// DictBuilder accumulates leaf paths for a dictionary hierarchy.
type DictBuilder struct {
	name       string
	levelNames []string // finest first, e.g. ["Site", "Region"]
	paths      map[string][]string
	errs       []string
}

// NewDictBuilder starts a hierarchy for a dimension. levelNames lists
// the concrete domains, finest first; D_ALL is implicit.
func NewDictBuilder(name string, levelNames ...string) *DictBuilder {
	b := &DictBuilder{name: name, levelNames: levelNames, paths: map[string][]string{}}
	if len(levelNames) == 0 {
		b.errs = append(b.errs, "dictionary hierarchy needs at least one level")
	}
	return b
}

// Add registers one leaf with its ancestor labels, finest first: the
// leaf value followed by its parent at each coarser level. Re-adding
// the same leaf with a different lineage is an error.
func (b *DictBuilder) Add(labels ...string) *DictBuilder {
	if len(labels) != len(b.levelNames) {
		b.errs = append(b.errs, fmt.Sprintf("Add(%v): want %d labels (one per level)", labels, len(b.levelNames)))
		return b
	}
	for _, l := range labels {
		if l == "" {
			b.errs = append(b.errs, fmt.Sprintf("Add(%v): empty label", labels))
			return b
		}
	}
	leaf := labels[0]
	if prev, ok := b.paths[leaf]; ok {
		if !eqStrings(prev, labels) {
			b.errs = append(b.errs, fmt.Sprintf("leaf %q registered with two lineages: %v and %v", leaf, prev, labels))
		}
		return b
	}
	cp := make([]string, len(labels))
	copy(cp, labels)
	b.paths[leaf] = cp
	return b
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Dict resolves between labels and codes after Build.
type Dict struct {
	// codeOf[level][label] -> code; labelOf[level][code] -> label.
	codeOf  []map[string]int64
	labelOf [][]string
	// upOne[level][childCode] -> parentCode.
	upOne [][]int64
}

// LeafCode returns the base-domain code of a leaf label.
func (d *Dict) LeafCode(label string) (int64, error) {
	c, ok := d.codeOf[0][label]
	if !ok {
		return 0, fmt.Errorf("model: dictionary has no leaf %q", label)
	}
	return c, nil
}

// Label returns the label of a code at the given level.
func (d *Dict) Label(level Level, code int64) string {
	if int(level) >= len(d.labelOf) || code < 0 || code >= int64(len(d.labelOf[level])) {
		return fmt.Sprintf("?%d", code)
	}
	return d.labelOf[level][code]
}

// Build assigns codes and produces the Dimension plus its Dict.
func (b *DictBuilder) Build() (*Dimension, *Dict, error) {
	if len(b.errs) > 0 {
		return nil, nil, fmt.Errorf("model: invalid dictionary %q:\n  %s", b.name, strings.Join(b.errs, "\n  "))
	}
	if len(b.paths) == 0 {
		return nil, nil, fmt.Errorf("model: dictionary %q has no leaves", b.name)
	}
	depth := len(b.levelNames)

	// Consistency: one parent lineage per label at every level.
	lineage := make([]map[string][]string, depth)
	for l := range lineage {
		lineage[l] = map[string][]string{}
	}
	for _, path := range b.paths {
		for l := 0; l < depth; l++ {
			suffix := path[l:]
			if prev, ok := lineage[l][path[l]]; ok {
				if !eqStrings(prev, suffix) {
					return nil, nil, fmt.Errorf("model: dictionary %q: label %q at level %s has two lineages: %v and %v",
						b.name, path[l], b.levelNames[l], prev[1:], suffix[1:])
				}
			} else {
				lineage[l][path[l]] = suffix
			}
		}
	}

	// Order leaves by their full reversed path (coarsest first), so
	// siblings group under their ancestors and codes are monotone.
	leaves := make([][]string, 0, len(b.paths))
	for _, p := range b.paths {
		leaves = append(leaves, p)
	}
	sort.Slice(leaves, func(i, j int) bool {
		a, c := leaves[i], leaves[j]
		for l := depth - 1; l >= 0; l-- {
			if a[l] != c[l] {
				return a[l] < c[l]
			}
		}
		return false
	})

	d := &Dict{
		codeOf:  make([]map[string]int64, depth),
		labelOf: make([][]string, depth),
		upOne:   make([][]int64, depth),
	}
	for l := 0; l < depth; l++ {
		d.codeOf[l] = map[string]int64{}
	}
	for _, path := range leaves {
		for l := 0; l < depth; l++ {
			if _, ok := d.codeOf[l][path[l]]; !ok {
				d.codeOf[l][path[l]] = int64(len(d.labelOf[l]))
				d.labelOf[l] = append(d.labelOf[l], path[l])
			}
		}
	}
	for l := 0; l < depth; l++ {
		d.upOne[l] = make([]int64, len(d.labelOf[l]))
		for code, label := range d.labelOf[l] {
			if l+1 < depth {
				parent := lineage[l][label][1]
				d.upOne[l][code] = d.codeOf[l+1][parent]
			} else {
				d.upOne[l][code] = 0
			}
		}
	}

	specs := make([]DomainSpec, depth)
	for l := 0; l < depth; l++ {
		l := l
		card := len(d.labelOf[l])
		parentCard := 1
		if l+1 < depth {
			parentCard = len(d.labelOf[l+1])
		}
		fanout := float64(card) / float64(parentCard)
		if fanout < 1 {
			fanout = 1
		}
		// MinFanout 1: uneven trees are the norm for dictionaries.
		specs[l] = DomainSpec{
			Name: b.levelNames[l],
			UpOne: func(c int64) int64 {
				if c < 0 || c >= int64(len(d.upOne[l])) {
					return 0
				}
				return d.upOne[l][c]
			},
			Fanout:    fanout,
			MinFanout: 1,
			Format:    func(c int64) string { return d.Label(Level(l), c) },
		}
	}
	dim, err := NewDimension(b.name, specs...)
	if err != nil {
		return nil, nil, err
	}
	// Monotonicity self-check over the full code range: cheap and
	// guards the sorted-assignment invariant.
	codes := make([]int64, len(d.labelOf[0]))
	for i := range codes {
		codes[i] = int64(i)
	}
	for l := Level(0); int(l) < depth; l++ {
		lvlCodes := codes
		if int(l) > 0 {
			lvlCodes = make([]int64, len(d.labelOf[l]))
			for i := range lvlCodes {
				lvlCodes[i] = int64(i)
			}
		}
		if err := dim.CheckMonotone(l, lvlCodes); err != nil {
			return nil, nil, fmt.Errorf("model: dictionary %q: %w", b.name, err)
		}
	}
	return dim, d, nil
}
