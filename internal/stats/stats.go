// Package stats estimates dataset statistics for the optimizer. The
// paper's Table 6 relies on a card() function and notes that "for most
// datasets, this number is not fixed. But the precision of this
// function will only affect the size estimation" — this package turns
// that into practice: one scan (or a prefix sample) of the fact records
// yields per-dimension distinct-value estimates via linear counting,
// which plug into plan.Stats and replace guessed cardinalities.
package stats

import (
	"fmt"
	"math"

	"awra/internal/exec/scan"
	"awra/internal/plan"
	"awra/internal/qguard"
)

// bitmapBits is the linear-counting bitmap size per dimension (64 Ki
// bits = 8 KiB). Estimates are accurate to a few percent up to roughly
// the bitmap size and saturate gracefully beyond it.
const bitmapBits = 1 << 16

// DimStats summarizes one dimension's base-domain values.
type DimStats struct {
	// Distinct estimates the number of distinct base codes.
	Distinct float64
	// Min and Max are the observed code range.
	Min, Max int64
	// Saturated reports that the distinct estimate hit the counting
	// bitmap's ceiling and is a lower bound.
	Saturated bool
}

// Stats is the result of a collection scan.
type Stats struct {
	Records int64
	Dims    []DimStats
}

// Options tunes collection.
type Options struct {
	// SampleLimit stops after this many records (0 = scan everything).
	// Distinct counts are then scaled linearly by the sampled
	// fraction's inverse only when the caller knows the total; here
	// they are reported raw, which still ranks sort keys correctly.
	SampleLimit int64
}

// Collect reads the input — or its first SampleLimit records — under
// the query's guard, whose cancellation and degraded-read policy it
// follows, and estimates per-dimension stats.
func Collect(in scan.Input, guard *qguard.Guard, opts Options) (*Stats, error) {
	src, err := in.Open(scan.Options{Guard: guard})
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	defer src.Close()
	numDims := src.Header().NumDims
	if numDims <= 0 {
		return nil, fmt.Errorf("stats: need at least one dimension")
	}
	st := &Stats{Dims: make([]DimStats, numDims)}
	bitmaps := make([][]uint64, numDims)
	for i := range bitmaps {
		bitmaps[i] = make([]uint64, bitmapBits/64)
		st.Dims[i].Min = math.MaxInt64
		st.Dims[i].Max = math.MinInt64
	}
	for opts.SampleLimit <= 0 || st.Records < opts.SampleLimit {
		batch, err := src.NextBatch()
		if err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		if batch == nil {
			break
		}
		if opts.SampleLimit > 0 {
			batch = batch[:min(int64(len(batch)), opts.SampleLimit-st.Records)]
		}
		st.Records += int64(len(batch))
		for _, row := range batch {
			for d := range st.Dims {
				v := row.Dim(d)
				h := mix64(uint64(v)) & (bitmapBits - 1)
				bitmaps[d][h/64] |= 1 << (h % 64)
				st.Dims[d].Min = min(st.Dims[d].Min, v)
				st.Dims[d].Max = max(st.Dims[d].Max, v)
			}
		}
	}
	for d := range st.Dims {
		if st.Records == 0 {
			st.Dims[d] = DimStats{Distinct: 1}
			continue
		}
		zeros := 0
		for _, w := range bitmaps[d] {
			zeros += 64 - popcount(w)
		}
		st.Dims[d].Distinct, st.Dims[d].Saturated = estimateFromZeros(zeros)
	}
	return st, nil
}

// PlanStats converts the collected statistics into the optimizer's
// input form.
func (s *Stats) PlanStats() *plan.Stats {
	out := &plan.Stats{BaseCard: make([]float64, len(s.Dims)), Records: float64(s.Records), Source: plan.SourceCollected}
	for i, d := range s.Dims {
		out.BaseCard[i] = d.Distinct
	}
	return out
}

// estimateFromZeros applies the linear-counting estimator
// n ~ -m * ln(zeros/m). A fully set bitmap saturates: the estimator's
// ceiling m*ln(m) is reported as a lower bound.
func estimateFromZeros(zeros int) (float64, bool) {
	if zeros <= 0 {
		return bitmapBits * math.Log(bitmapBits), true
	}
	n := -float64(bitmapBits) * math.Log(float64(zeros)/float64(bitmapBits))
	if n < 1 {
		n = 1
	}
	return n, false
}

// mix64 is SplitMix64's finalizer: a fast, well-distributed 64-bit
// mixer (deterministic across runs, unlike maphash).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
