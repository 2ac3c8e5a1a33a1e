package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
)

// Standard histogram names. Values are observed in the unit the name
// declares; buckets are fixed powers of two, so recording is one
// bits.Len plus two atomic adds — cheap enough for per-query (never
// per-record) observation.
const (
	// HQueryLatencyUs is the end-to-end query latency distribution in
	// microseconds, labeled {engine}.
	HQueryLatencyUs = "query_latency_us"
	// HPhaseLatencyUs is the per-phase latency distribution in
	// microseconds, labeled {phase} (sort, scan, optimize, ...).
	HPhaseLatencyUs = "phase_latency_us"
	// HRowsPerSec is the scan-throughput distribution in fact records
	// per second, labeled {engine}.
	HRowsPerSec = "query_rows_per_sec"
	// HServeLatencyUs is the serve layer's end-to-end request latency
	// (admission wait, then execution or cache lookup, then writing the
	// response) in microseconds, labeled {outcome}.
	HServeLatencyUs = "serve_request_latency_us"
	// HServeWaitUs is the admission-queue wait distribution in
	// microseconds for requests that had to queue.
	HServeWaitUs = "serve_admission_wait_us"
)

// histMaxBucket is the number of finite buckets: values land in bucket
// k when 2^(k-1) < v <= 2^k (bucket 0 holds v <= 1), so 63 buckets
// cover every positive int64.
const histMaxBucket = 63

// Histogram is a fixed log-scale (powers-of-two) latency/throughput
// distribution. Observe is lock-free — one bits.Len64 and three atomic
// adds — so it is safe on any path that runs at most once per query
// phase. A nil Histogram is a valid no-op.
type Histogram struct {
	name   string
	labels []Attr
	count  atomic.Int64
	sum    atomic.Int64
	bucket [histMaxBucket + 1]atomic.Int64
}

// bucketIndex maps a value to its bucket: ceil(log2(v)), clamped.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(v - 1)) // smallest k with 2^k >= v
	if idx > histMaxBucket {
		idx = histMaxBucket
	}
	return idx
}

// bucketUpper is the inclusive upper bound of bucket idx.
func bucketUpper(idx int) int64 {
	if idx >= histMaxBucket {
		return math.MaxInt64
	}
	return int64(1) << uint(idx)
}

// Observe records one value. Negative values count as zero. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.bucket[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations. Nil-safe (returns 0).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values. Nil-safe (returns 0).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramBucket is one non-empty bucket in a snapshot: Count
// observations with value <= Le.
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of one histogram. Buckets
// carry per-bucket (non-cumulative) counts for only the non-empty
// buckets; exporters re-cumulate.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// snapshot captures the histogram's current state. Concurrent Observe
// calls may tear count vs. buckets by one observation; snapshots are
// monitoring reads, not barriers.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Name: h.name, Count: h.count.Load(), Sum: h.sum.Load()}
	if len(h.labels) > 0 {
		s.Labels = make(map[string]string, len(h.labels))
		for _, a := range h.labels {
			s.Labels[a.Key] = a.Value
		}
	}
	for i := range h.bucket {
		if n := h.bucket[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: bucketUpper(i), Count: n})
		}
	}
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts: it returns the upper bound of the bucket containing the
// q-th observation, interpolated linearly inside the bucket. Returns
// 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, b := range s.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(s.Buckets[i-1].Le)
			}
			hi := float64(b.Le)
			if b.Count == 0 {
				return hi
			}
			frac := (rank - prev) / float64(b.Count)
			return lo + frac*(hi-lo)
		}
	}
	return float64(s.Buckets[len(s.Buckets)-1].Le)
}

// histKey builds the registry key for a labeled histogram: the name
// plus the sorted label pairs.
func histKey(name string, labels []Attr) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, a := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", a.Key, a.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Histogram returns (creating if needed) the named histogram with the
// given label pairs ("engine", "sortscan", ...). Label keys are sorted
// into a canonical series identity, so call order does not split
// series. Nil recorders return nil histograms. Like Counter/Gauge,
// resolution takes the registry mutex — resolve once per query, not
// per record.
func (r *Recorder) Histogram(name string, labelPairs ...string) *Histogram {
	o := r.owner()
	if o == nil {
		return nil
	}
	labels := make([]Attr, 0, len(labelPairs)/2)
	for i := 0; i+1 < len(labelPairs); i += 2 {
		labels = append(labels, Attr{Key: labelPairs[i], Value: labelPairs[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	key := histKey(name, labels)
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	if o.reg.histograms == nil {
		o.reg.histograms = make(map[string]*Histogram)
	}
	h, ok := o.reg.histograms[key]
	if !ok {
		h = &Histogram{name: name, labels: labels}
		o.reg.histograms[key] = h
	}
	return h
}

// HistogramSnapshots returns a snapshot of every registered histogram,
// sorted by series identity. Nil-safe (returns nil).
func (r *Recorder) HistogramSnapshots() []HistogramSnapshot {
	o := r.owner()
	if o == nil {
		return nil
	}
	o.reg.mu.Lock()
	keys := make([]string, 0, len(o.reg.histograms))
	for k := range o.reg.histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hs := make([]*Histogram, len(keys))
	for i, k := range keys {
		hs[i] = o.reg.histograms[k]
	}
	o.reg.mu.Unlock()
	if len(hs) == 0 {
		return nil
	}
	out := make([]HistogramSnapshot, len(hs))
	for i, h := range hs {
		out[i] = h.snapshot()
	}
	return out
}
