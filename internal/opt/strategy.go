package opt

import (
	"fmt"

	"awra/internal/core"
	"awra/internal/model"
	"awra/internal/plan"
)

// Strategy is an evaluation approach, ordered by increasing machinery.
type Strategy int

const (
	// StrategySingleScan: no sort; everything fits in the budget. The
	// paper's own remedy for Figure 7(a): "this situation can be
	// addressed by switching to simple scan when the required memory
	// is smaller than the memory budget".
	StrategySingleScan Strategy = iota
	// StrategySortScan: one sorted pass with the chosen key.
	StrategySortScan
	// StrategyMultiPass: no single key keeps the footprint within the
	// budget; split basic measures across passes.
	StrategyMultiPass
)

func (s Strategy) String() string {
	switch s {
	case StrategySingleScan:
		return "singlescan"
	case StrategySortScan:
		return "sortscan"
	case StrategyMultiPass:
		return "multipass"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Decision explains a strategy choice.
type Decision struct {
	Strategy Strategy
	// Key is the chosen sort key (sort/scan and multi-pass passes).
	Key model.SortKey
	// SingleScanBytes estimates holding every measure's full hash
	// table at once (what the single-scan engine needs).
	SingleScanBytes float64
	// SortScanBytes estimates the best streaming plan's footprint.
	SortScanBytes float64
	// KeysScored is how many candidate sort keys the search scored.
	KeysScored int
}

// cellBytes mirrors the footprint constant used by plan.Build.
const cellBytes = 48

// MeasureCells estimates the full region count of measure i — the
// hash-table size an engine without early flushing holds for it. Uses
// per-dimension cardinalities and the records clamp from stats; a
// measured-statistics hit (stats.Measured) overrides the formula.
func MeasureCells(c *core.Compiled, i int, stats *plan.Stats) float64 {
	cells, _ := MeasureCellsInfo(c, i, stats)
	return cells
}

// MeasureCellsInfo is MeasureCells plus the estimate's provenance
// label (plan.SourceAssumed / SourceCollected / SourceMeasured).
func MeasureCellsInfo(c *core.Compiled, i int, stats *plan.Stats) (float64, string) {
	// The measured total region count is exactly what this function
	// estimates, so a hit replaces the formula instead of capping it.
	if stats != nil && stats.Measured != nil {
		if cells, ok := stats.Measured(c.NodeSignature(i)); ok && cells > 0 {
			return cells, plan.SourceMeasured
		}
	}
	sch := c.Schema
	m := c.Measures[i]
	cells := 1.0
	for d := 0; d < sch.NumDims(); d++ {
		if m.Gran[d] == sch.Dim(d).ALL() {
			continue
		}
		cells *= stats.DimCard(sch, d, m.Gran[d])
	}
	if stats != nil && stats.Records > 0 && cells > stats.Records {
		cells = stats.Records
	}
	return cells, stats.SourceLabel()
}

// SingleScanFootprint estimates the bytes the single-scan engine needs:
// the full region count of every measure, simultaneously (no early
// flushing without a sort).
func SingleScanFootprint(c *core.Compiled, stats *plan.Stats) float64 {
	total := 0.0
	for i, m := range c.Measures {
		total += MeasureCells(c, i, stats) * float64(cellBytes+m.Codec.KeyBytes())
	}
	return total
}

// Choose implements the Section 6 decision procedure under a memory
// budget (bytes): simple scan if everything fits without sorting,
// otherwise the best-key sort/scan if its streaming footprint fits,
// otherwise multi-pass. budget <= 0 means "plenty of memory", which
// still prefers sort/scan once the single-scan estimate exceeds a
// default 1 GiB working set (matching the paper's large-data regime).
func Choose(c *core.Compiled, stats *plan.Stats, budget float64) (Decision, error) {
	if budget <= 0 {
		budget = 1 << 30
	}
	d := Decision{SingleScanBytes: SingleScanFootprint(c, stats)}
	best, err := Best(c, stats)
	if err != nil {
		return d, err
	}
	d.Key = best.Key
	d.SortScanBytes = best.EstBytes
	d.KeysScored = best.KeysScored
	switch {
	case d.SingleScanBytes <= budget:
		d.Strategy = StrategySingleScan
	case d.SortScanBytes <= budget:
		d.Strategy = StrategySortScan
	default:
		d.Strategy = StrategyMultiPass
	}
	return d, nil
}
