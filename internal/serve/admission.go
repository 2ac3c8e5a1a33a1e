package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

// Rejection reasons found in RejectError.Reason.
const (
	// ReasonTenantLimit: the tenant already runs its full concurrency
	// share; rejected immediately (never queued) so one tenant cannot
	// monopolize the wait queue.
	ReasonTenantLimit = "tenant_limit"
	// ReasonQueueFull: every execution slot is busy and the bounded
	// wait queue is at capacity (or shedding disabled queueing).
	ReasonQueueFull = "queue_full"
	// ReasonQueueTimeout: the request waited its full queue allowance
	// without a slot freeing up.
	ReasonQueueTimeout = "queue_timeout"
	// ReasonDraining: the server is draining and admits nothing new.
	ReasonDraining = "draining"
)

// RejectError is the concrete error behind aw.ErrAdmissionRejected: it
// names why admission control turned the request away and how long the
// caller should wait before retrying (the Retry-After header value).
type RejectError struct {
	Reason     string
	Tenant     string
	RetryAfter time.Duration
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("aw: admission rejected (%s, tenant %q, retry after %s)", e.Reason, e.Tenant, e.RetryAfter)
}

// Unwrap makes errors.Is(err, aw.ErrAdmissionRejected) true.
func (e *RejectError) Unwrap() error { return aw.ErrAdmissionRejected }

// AsReject extracts a *RejectError from an error chain.
func AsReject(err error) (*RejectError, bool) {
	var re *RejectError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// GateConfig tunes the admission gate.
type GateConfig struct {
	// MaxConcurrent is the number of queries allowed to execute at
	// once (the weighted-semaphore width). Must be >= 1.
	MaxConcurrent int
	// TenantLimit caps concurrent queries per tenant; 0 means
	// MaxConcurrent (no per-tenant fairness).
	TenantLimit int
	// QueueDepth bounds how many requests may wait for a slot once all
	// are busy; a request arriving to a full queue is shed. 0 disables
	// queueing (immediate shed when saturated).
	QueueDepth int
	// QueueWait bounds how long a queued request waits before it is
	// shed; 0 defaults to one second.
	QueueWait time.Duration
}

// retryAfter is the backoff hint every rejection carries.
const retryAfter = time.Second

func (c GateConfig) withDefaults() GateConfig {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 1
	}
	if c.TenantLimit <= 0 || c.TenantLimit > c.MaxConcurrent {
		c.TenantLimit = c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	return c
}

// Gate is the admission-control front door: a semaphore of
// MaxConcurrent execution slots with a bounded FIFO wait queue and
// per-tenant concurrency limits. Admit either returns a release
// function (the request owns a slot until it calls it) or a
// *RejectError wrapping aw.ErrAdmissionRejected. Closing the gate
// (drain) rejects all new admissions while released slots drain out.
//
// Rejection is deliberately the cheap path: no planning, no I/O, just
// a counter check under one mutex — the "say no early" half of the
// paper's Section 6 budgeting, applied per process instead of per
// query.
type Gate struct {
	cfg GateConfig
	rec *obs.Recorder

	mu        sync.Mutex
	active    int
	perTenant map[string]int
	waiting   int
	shedding  bool
	closed    bool
	// slots is the semaphore: buffered to MaxConcurrent, a token in
	// the channel is a free execution slot.
	slots chan struct{}
}

// NewGate builds an admission gate. rec (nil-safe) receives the
// serve_admitted/serve_shed/serve_queued counters and the
// queue-depth/active gauges.
func NewGate(cfg GateConfig, rec *obs.Recorder) *Gate {
	cfg = cfg.withDefaults()
	g := &Gate{cfg: cfg, rec: rec, perTenant: make(map[string]int), slots: make(chan struct{}, cfg.MaxConcurrent)}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		g.slots <- struct{}{}
	}
	// Register the vocabulary up front so /metrics shows zeros.
	rec.Counter(obs.MServeAdmitted)
	rec.Counter(obs.MServeShed)
	rec.Counter(obs.MServeQueued)
	rec.Gauge(obs.GServeActive)
	rec.Gauge(obs.GServeQueueDepth)
	return g
}

// SetShedding switches queueing off (true) or back on (false): while
// shedding, saturated arrivals are rejected immediately instead of
// queued — the overload controller's level-2 action.
func (g *Gate) SetShedding(on bool) {
	g.mu.Lock()
	g.shedding = on
	g.mu.Unlock()
}

// Close stops all future admissions (drain). Idempotent.
func (g *Gate) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

// Active returns the number of admitted, unreleased requests.
func (g *Gate) Active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active
}

// reject counts and builds one rejection.
func (g *Gate) reject(reason, tenant string) error {
	g.rec.Counter(obs.MServeShed).Add(1)
	return &RejectError{Reason: reason, Tenant: tenant, RetryAfter: retryAfter}
}

// Admit asks for an execution slot for tenant. On success the caller
// MUST call the returned release exactly once when the query finishes.
// On failure the error wraps aw.ErrAdmissionRejected (and ctx errors
// pass through when the caller gave up first).
func (g *Gate) Admit(ctx context.Context, tenant string) (release func(), err error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, g.reject(ReasonDraining, tenant)
	}
	if g.perTenant[tenant] >= g.cfg.TenantLimit {
		g.mu.Unlock()
		return nil, g.reject(ReasonTenantLimit, tenant)
	}
	// Fast path: a free slot with no queue ahead of us.
	if g.waiting == 0 {
		select {
		case <-g.slots:
			return g.admitLocked(tenant), nil
		default:
		}
	}
	// Saturated: queue if allowed, shed otherwise.
	if g.shedding || g.waiting >= g.cfg.QueueDepth {
		g.mu.Unlock()
		return nil, g.reject(ReasonQueueFull, tenant)
	}
	g.waiting++
	g.rec.Counter(obs.MServeQueued).Add(1)
	g.rec.Gauge(obs.GServeQueueDepth).Set(int64(g.waiting))
	g.mu.Unlock()

	timer := time.NewTimer(g.cfg.QueueWait)
	defer timer.Stop()
	waited := func() {
		g.mu.Lock()
		g.waiting--
		g.rec.Gauge(obs.GServeQueueDepth).Set(int64(g.waiting))
	}
	select {
	case <-g.slots:
		waited() // leaves g.mu held
		if g.closed {
			g.slots <- struct{}{}
			g.mu.Unlock()
			return nil, g.reject(ReasonDraining, tenant)
		}
		if g.perTenant[tenant] >= g.cfg.TenantLimit {
			// The tenant filled its share while this request queued.
			g.slots <- struct{}{}
			g.mu.Unlock()
			return nil, g.reject(ReasonTenantLimit, tenant)
		}
		return g.admitLocked(tenant), nil
	case <-timer.C:
		waited()
		g.mu.Unlock()
		return nil, g.reject(ReasonQueueTimeout, tenant)
	case <-ctx.Done():
		waited()
		g.mu.Unlock()
		return nil, ctx.Err()
	}
}

// admitLocked finishes an admission that already holds a slot token
// and g.mu; it returns the release func and unlocks.
func (g *Gate) admitLocked(tenant string) (release func()) {
	g.active++
	g.perTenant[tenant]++
	g.rec.Counter(obs.MServeAdmitted).Add(1)
	g.rec.Gauge(obs.GServeActive).Set(int64(g.active))
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.active--
			g.perTenant[tenant]--
			if g.perTenant[tenant] <= 0 {
				delete(g.perTenant, tenant)
			}
			g.rec.Gauge(obs.GServeActive).Set(int64(g.active))
			g.mu.Unlock()
			g.slots <- struct{}{}
		})
	}
}
