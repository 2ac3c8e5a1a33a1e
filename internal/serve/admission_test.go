package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

func TestGateConcurrencyCapAndRecovery(t *testing.T) {
	rec := obs.New()
	g := NewGate(GateConfig{MaxConcurrent: 2, QueueDepth: 0}, rec)
	ctx := context.Background()

	r1, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Admit(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if g.Active() != 2 {
		t.Fatalf("Active = %d, want 2", g.Active())
	}

	_, err = g.Admit(ctx, "c")
	re, ok := AsReject(err)
	if !ok || re.Reason != ReasonQueueFull {
		t.Fatalf("3rd admit: got %v, want queue_full reject", err)
	}
	if !errors.Is(err, aw.ErrAdmissionRejected) {
		t.Fatalf("reject does not unwrap to ErrAdmissionRejected: %v", err)
	}
	if re.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", re.RetryAfter)
	}

	r1()
	r3, err := g.Admit(ctx, "c")
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	r3()
	r2()
	if g.Active() != 0 {
		t.Fatalf("Active = %d after all releases, want 0", g.Active())
	}
	if n := rec.Counter(obs.MServeShed).Value(); n != 1 {
		t.Errorf("serve_shed = %d, want 1", n)
	}
	if n := rec.Counter(obs.MServeAdmitted).Value(); n != 3 {
		t.Errorf("serve_admitted = %d, want 3", n)
	}
}

func TestGateTenantLimit(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 4, TenantLimit: 1, QueueDepth: 4}, obs.New())
	ctx := context.Background()

	rA, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Over-limit tenants are rejected immediately, never queued, even
	// though both slots and queue space are free.
	_, err = g.Admit(ctx, "a")
	if re, ok := AsReject(err); !ok || re.Reason != ReasonTenantLimit {
		t.Fatalf("2nd a: got %v, want tenant_limit", err)
	}
	if n := queueDepth(g); n != 0 {
		t.Fatalf("queue depth = %d, want 0 (tenant rejects bypass the queue)", n)
	}
	rB, err := g.Admit(ctx, "b")
	if err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	rA()
	rA2, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatalf("a after release: %v", err)
	}
	rA2()
	rB()
}

func TestGateReleaseIdempotent(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 1}, nil)
	r, err := g.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	r()
	r() // double release must not free a second slot or go negative
	if g.Active() != 0 {
		t.Fatalf("Active = %d, want 0", g.Active())
	}
	r2, err := g.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r2()
	if _, err := g.Admit(context.Background(), "b"); !errors.Is(err, aw.ErrAdmissionRejected) {
		t.Fatalf("slot leaked by double release: %v", err)
	}
}

func TestGateQueueTimeoutAndOverflow(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 1, QueueDepth: 1, QueueWait: 30 * time.Millisecond}, obs.New())
	ctx := context.Background()
	r, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r()

	// One waiter fits in the queue; a second overflows immediately.
	type res struct {
		err error
	}
	ch := make(chan res, 1)
	go func() {
		_, err := g.Admit(ctx, "b")
		ch <- res{err}
	}()
	waitFor(t, func() bool { return queueDepth(g) == 1 })
	if _, err := g.Admit(ctx, "c"); !isReason(err, ReasonQueueFull) {
		t.Fatalf("overflow: got %v, want queue_full", err)
	}
	if got := <-ch; !isReason(got.err, ReasonQueueTimeout) {
		t.Fatalf("queued waiter: got %v, want queue_timeout", got.err)
	}
}

func TestGateQueueHandoff(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 1, QueueDepth: 2, QueueWait: 2 * time.Second}, obs.New())
	ctx := context.Background()
	r, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		r2, err := g.Admit(ctx, "b")
		if err == nil {
			r2()
		}
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(g) == 1 })
	r()
	if err := <-done; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}
}

func TestGateSheddingSkipsQueue(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 1, QueueDepth: 8, QueueWait: time.Second}, nil)
	r, err := g.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r()
	g.SetShedding(true)
	if _, err := g.Admit(context.Background(), "b"); !isReason(err, ReasonQueueFull) {
		t.Fatalf("shedding admit: got %v, want immediate queue_full", err)
	}
	g.SetShedding(false)
}

func TestGateCloseRejectsAndDrainsQueue(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 1, QueueDepth: 2, QueueWait: 2 * time.Second}, obs.New())
	ctx := context.Background()
	r, err := g.Admit(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, "b")
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(g) == 1 })
	g.Close()
	if _, err := g.Admit(ctx, "c"); !isReason(err, ReasonDraining) {
		t.Fatalf("post-close admit: got %v, want draining", err)
	}
	// The queued waiter must not sneak in when the active query's slot
	// frees up under a closed gate.
	r()
	if err := <-done; !isReason(err, ReasonDraining) {
		t.Fatalf("queued waiter after close: got %v, want draining", err)
	}
	if g.Active() != 0 {
		t.Fatalf("Active = %d, want 0", g.Active())
	}
}

func TestGateCtxCanceledWhileQueued(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 1, QueueDepth: 1, QueueWait: 2 * time.Second}, obs.New())
	r, err := g.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer r()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, "b")
		done <- err
	}()
	waitFor(t, func() bool { return queueDepth(g) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: got %v, want context.Canceled", err)
	}
	if n := queueDepth(g); n != 0 {
		t.Fatalf("queue depth = %d, want 0", n)
	}
}

func isReason(err error, reason string) bool {
	re, ok := AsReject(err)
	return ok && re.Reason == reason
}

// queueDepth reads the gate's queue-depth gauge.
func queueDepth(g *Gate) int64 { return g.rec.Gauge(obs.GServeQueueDepth).Value() }

// waitFor polls cond until true or a deadline; the queue transitions
// it watches are local channel handoffs, never real work.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
