package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// registry holds named counters and gauges. Lookup is mutex-guarded
// (engines resolve instruments once per run, at phase boundaries);
// updates are atomic, so a resolved *Counter or *Gauge is safe to
// update from many goroutines.
type registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	// histograms holds the labeled log-scale distributions (see
	// histogram.go), keyed by name plus canonical label pairs. Created
	// lazily on first resolution.
	histograms map[string]*Histogram
}

func (g *registry) init() {
	g.counters = make(map[string]*Counter)
	g.gauges = make(map[string]*Gauge)
}

// Counter is a monotonically increasing metric. A nil Counter is a
// valid no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Nil-safe (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time metric. A nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark). Nil-safe.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the gauge's value. Nil-safe (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter returns (creating if needed) the named counter. Calling it
// registers the name, so a metric shows up in snapshots even while
// still zero — engines resolve their full vocabulary up front so every
// evaluator exports the same names. Nil recorders return nil counters.
func (r *Recorder) Counter(name string) *Counter {
	o := r.owner()
	if o == nil {
		return nil
	}
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	c, ok := o.reg.counters[name]
	if !ok {
		c = &Counter{}
		o.reg.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil recorders
// return nil gauges.
func (r *Recorder) Gauge(name string) *Gauge {
	o := r.owner()
	if o == nil {
		return nil
	}
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	g, ok := o.reg.gauges[name]
	if !ok {
		g = &Gauge{}
		o.reg.gauges[name] = g
	}
	return g
}

// values returns a copy of the counter and gauge names and values.
func (r *Recorder) values() (counters, gauges map[string]int64) {
	o := r.owner()
	if o == nil {
		return nil, nil
	}
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	counters = make(map[string]int64, len(o.reg.counters))
	for name, c := range o.reg.counters {
		counters[name] = c.Value()
	}
	gauges = make(map[string]int64, len(o.reg.gauges))
	for name, g := range o.reg.gauges {
		gauges[name] = g.Value()
	}
	return counters, gauges
}

func sortedNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
