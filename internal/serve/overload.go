package serve

import (
	"sort"
	"sync"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

// Overload levels. The controller moves one step at a time: escalation
// is immediate (pressure is expensive), de-escalation needs several
// consecutive healthy observations (hysteresis, so the ladder does not
// flap around the threshold).
const (
	// LevelNormal: requests run with their configured budgets.
	LevelNormal = 0
	// LevelDegraded: budgets are tightened (qguard.Limits.Scale) and
	// EngineAuto is forced with a reduced memory budget, so the §6
	// decision procedure downgrades big sort/scan plans to multi-pass —
	// each query gets smaller and slower instead of being rejected.
	LevelDegraded = 1
	// LevelShedding: on top of degraded budgets, the admission gate
	// stops queueing — saturated arrivals are rejected immediately.
	LevelShedding = 2
)

// At LevelDegraded and above every budget is scaled by tightenFactor
// (qguard.Limits.Scale) and EngineAuto runs under at most
// degradedMemoryBudget, forcing the Section 6 chooser toward
// multi-pass plans.
const (
	tightenFactor        = 0.5
	degradedMemoryBudget = 8 << 20
)

// The p95 is computed over the last overloadWindow completions, and
// overloadCooldown consecutive healthy observations de-escalate one
// level.
const (
	overloadWindow   = 64
	overloadCooldown = 8
)

// OverloadConfig tunes the controller's thresholds.
type OverloadConfig struct {
	// HighP95 escalates when the recent p95 request latency exceeds
	// it; 0 disables the latency trigger.
	HighP95 time.Duration
	// HighLiveCells escalates when a completed query's live-cell
	// high-water mark exceeds it; 0 disables the memory trigger.
	HighLiveCells int64
}

// Controller is the graceful-degradation ladder. Every completed
// request reports its latency and live-cell high-water mark through
// Observe; the controller keeps a sliding window, recomputes the
// recent p95, and moves the overload level. Apply stamps the current
// level's policy onto a query's options before it runs.
//
// The same measurements also feed the serve recorder's cumulative
// histograms (HServeLatencyUs) for /metrics; the controller's window
// is the responsive, recent-history view of that distribution.
type Controller struct {
	cfg  OverloadConfig
	gate *Gate
	rec  *obs.Recorder

	mu      sync.Mutex
	level   int
	healthy int // consecutive healthy observations at current level
	win     []int64
	pos     int
	filled  bool
	hwm     int64 // largest live-cell HWM in the current window epoch
}

// NewController builds a controller that drives gate's shedding mode.
// Both gate and rec may be nil (standalone evaluation in tests).
func NewController(cfg OverloadConfig, gate *Gate, rec *obs.Recorder) *Controller {
	c := &Controller{cfg: cfg, gate: gate, rec: rec, win: make([]int64, overloadWindow)}
	rec.Gauge(obs.GServeOverloadLevel)
	rec.Counter(obs.MServeDegraded)
	return c
}

// Level returns the current overload level.
func (c *Controller) Level() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Observe folds one completed request into the window and re-evaluates
// the level: latency is the request's end-to-end duration, liveCells
// the query's live-cell high-water mark (0 when unknown).
func (c *Controller) Observe(latency time.Duration, liveCells int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.win[c.pos] = latency.Microseconds()
	c.pos = (c.pos + 1) % len(c.win)
	if c.pos == 0 {
		c.filled = true
	}
	if liveCells > c.hwm {
		c.hwm = liveCells
	}
	c.evaluateLocked()
}

// p95Locked computes the p95 of the filled portion of the window.
func (c *Controller) p95Locked() int64 {
	n := len(c.win)
	if !c.filled {
		n = c.pos
	}
	if n == 0 {
		return 0
	}
	s := make([]int64, n)
	copy(s, c.win[:n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (n*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// WindowP95 returns the sliding window's p95 request latency (0 until
// the window has observations). The flight recorder's slow-query
// threshold is derived from it, so "slow" tracks the service's actual
// recent latency distribution instead of a static cutoff.
func (c *Controller) WindowP95() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.p95Locked()) * time.Microsecond
}

// evaluateLocked moves the level one step based on the window.
func (c *Controller) evaluateLocked() {
	overloaded := false
	if c.cfg.HighP95 > 0 && c.p95Locked() > c.cfg.HighP95.Microseconds() {
		overloaded = true
	}
	if c.cfg.HighLiveCells > 0 && c.hwm > c.cfg.HighLiveCells {
		overloaded = true
	}
	switch {
	case overloaded && c.level < LevelShedding:
		c.level++
		c.healthy = 0
		c.hwm = 0 // each level change starts a fresh memory-pressure epoch
	case overloaded:
		c.healthy = 0
	case c.level > LevelNormal:
		c.healthy++
		if c.healthy >= overloadCooldown {
			c.level--
			c.healthy = 0
			c.hwm = 0
		}
	}
	c.rec.Gauge(obs.GServeOverloadLevel).Set(int64(c.level))
	if c.gate != nil {
		c.gate.SetShedding(c.level >= LevelShedding)
	}
}

// Apply stamps the current level's degradation policy onto one query's
// options and reports whether the query runs degraded. At LevelNormal
// it is the identity. At LevelDegraded and above, the engine is forced
// to EngineAuto with a capped memory budget — the paper's Section 6
// decision procedure then plans multi-pass when one pass's footprint
// no longer fits — and every hard guardrail is tightened by
// tightenFactor, shrinking each admitted query's footprint before the
// gate ever has to shed.
func (c *Controller) Apply(o *aw.QueryOptions) bool {
	c.mu.Lock()
	level := c.level
	c.mu.Unlock()
	if level < LevelDegraded || o == nil {
		return false
	}
	o.Engine = aw.EngineAuto
	o.ExecOptions = o.ExecOptions.TightenBudgets(tightenFactor)
	if o.MemoryBudget <= 0 || o.MemoryBudget > degradedMemoryBudget {
		o.MemoryBudget = degradedMemoryBudget
	}
	c.rec.Counter(obs.MServeDegraded).Add(1)
	return true
}
