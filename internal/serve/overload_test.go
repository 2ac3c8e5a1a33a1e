package serve

import (
	"testing"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

func newTestController(gate *Gate) (*Controller, *obs.Recorder) {
	rec := obs.New()
	return NewController(OverloadConfig{
		HighP95:       10 * time.Millisecond,
		HighLiveCells: 1000,
	}, gate, rec), rec
}

func TestControllerLadderUpAndDown(t *testing.T) {
	c, rec := newTestController(nil)
	if c.Level() != LevelNormal {
		t.Fatalf("initial level = %d", c.Level())
	}
	// Slow observations escalate one step each.
	c.Observe(50*time.Millisecond, 0)
	if c.Level() != LevelDegraded {
		t.Fatalf("after 1 slow: level = %d, want degraded", c.Level())
	}
	c.Observe(50*time.Millisecond, 0)
	if c.Level() != LevelShedding {
		t.Fatalf("after 2 slow: level = %d, want shedding", c.Level())
	}
	// Escalation saturates at shedding.
	c.Observe(50*time.Millisecond, 0)
	if c.Level() != LevelShedding {
		t.Fatalf("level = %d, want still shedding", c.Level())
	}
	if v := rec.Gauge(obs.GServeOverloadLevel).Value(); v != LevelShedding {
		t.Errorf("overload gauge = %d, want %d", v, LevelShedding)
	}

	// Healthy observations de-escalate one level per cooldown. The
	// slow samples age out of the p95 before the window wraps; the
	// first step down follows at least a cooldown of healthy ones.
	healthy := 0
	for c.Level() == LevelShedding {
		if healthy > overloadWindow+overloadCooldown {
			t.Fatalf("still shedding after %d healthy observations", healthy)
		}
		c.Observe(time.Millisecond, 0)
		healthy++
	}
	if c.Level() != LevelDegraded {
		t.Fatalf("after %d healthy: level = %d, want degraded (one step down)", healthy, c.Level())
	}
	if healthy < overloadCooldown {
		t.Fatalf("stepped down after %d healthy observations, before the cooldown of %d", healthy, overloadCooldown)
	}
	for i := 1; i < overloadCooldown; i++ {
		c.Observe(time.Millisecond, 0)
		if c.Level() != LevelDegraded {
			t.Fatalf("%d healthy into the cooldown: level = %d, want degraded", i, c.Level())
		}
	}
	c.Observe(time.Millisecond, 0)
	if c.Level() != LevelNormal {
		t.Fatalf("after a second cooldown: level = %d, want normal", c.Level())
	}
}

func TestControllerLiveCellTrigger(t *testing.T) {
	c, _ := newTestController(nil)
	c.Observe(time.Millisecond, 5000) // fast but memory-hungry
	if c.Level() != LevelDegraded {
		t.Fatalf("level = %d, want degraded on live-cell HWM", c.Level())
	}
}

func TestControllerApplyDegrades(t *testing.T) {
	c, rec := newTestController(nil)
	base := aw.QueryOptions{ExecOptions: aw.ExecOptions{
		Engine:        aw.EngineSortScan,
		MemoryBudget:  1 << 30,
		MaxLiveCells:  1000,
		MaxResultRows: 0, // unlimited stays unlimited
	}}

	o := base
	if c.Apply(&o) {
		t.Fatal("Apply degraded at LevelNormal")
	}
	if o.Engine != base.Engine || o.MemoryBudget != base.MemoryBudget {
		t.Fatal("Apply mutated options at LevelNormal")
	}

	c.Observe(time.Hour, 0) // escalate to degraded
	o = base
	if !c.Apply(&o) {
		t.Fatal("Apply did not degrade at LevelDegraded")
	}
	if o.Engine != aw.EngineAuto {
		t.Errorf("engine = %v, want EngineAuto (the §6 chooser must own the plan)", o.Engine)
	}
	if o.MemoryBudget != 8<<20 {
		t.Errorf("memory budget = %d, want capped to %d", o.MemoryBudget, 8<<20)
	}
	if o.MaxLiveCells != 500 {
		t.Errorf("MaxLiveCells = %d, want 500 (tightened by 0.5)", o.MaxLiveCells)
	}
	if o.MaxResultRows != 0 {
		t.Errorf("MaxResultRows = %d, want 0 (unlimited must stay unlimited)", o.MaxResultRows)
	}
	if n := rec.Counter(obs.MServeDegraded).Value(); n != 1 {
		t.Errorf("serve_degraded_runs = %d, want 1", n)
	}
}

func TestControllerDrivesGateShedding(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 1, QueueDepth: 4, QueueWait: time.Second}, obs.New())
	c, _ := newTestController(g)
	c.Observe(time.Hour, 0)
	c.Observe(time.Hour, 0)
	if c.Level() != LevelShedding {
		t.Fatalf("level = %d, want shedding", c.Level())
	}
	r, err := g.Admit(t.Context(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r()
	// Saturated + shedding: immediate rejection despite queue space.
	if _, err := g.Admit(t.Context(), "b"); !isReason(err, ReasonQueueFull) {
		t.Fatalf("got %v, want queue_full under shedding", err)
	}
	// Recovery switches queueing back on: once the slow samples leave
	// the window, two cooldowns step the ladder down to normal.
	for i := 0; i < overloadWindow+2*overloadCooldown; i++ {
		c.Observe(time.Microsecond, 0)
	}
	if c.Level() != LevelNormal {
		t.Fatalf("level = %d after recovery, want normal", c.Level())
	}
	done := make(chan error, 1)
	go func() {
		r2, err := g.Admit(t.Context(), "b")
		if err == nil {
			r2()
		}
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(g) == 1 })
	r()
	if err := <-done; err != nil {
		t.Fatalf("queueing not restored after recovery: %v", err)
	}
}
