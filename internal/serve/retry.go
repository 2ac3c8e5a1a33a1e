package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"awra/aw"
	"awra/internal/faultfs"
	"awra/internal/obs"
)

// RetryPolicy retries transiently-failed query attempts with jittered
// exponential backoff under a per-query retry budget. Classification
// is deliberately conservative: only errors the storage layer marks
// transient (faultfs.ErrTransient today; a real deployment would add
// EINTR-class syscall errors) are retried — budget trips, checksum
// corruption, cancellation, and compile errors are permanent and
// surface immediately.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (first try included); values
	// < 1 mean 1 (no retries).
	MaxAttempts int
	// BaseDelay is the first backoff; doubles each retry. 0 defaults
	// to 10ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff step; 0 defaults to 1s.
	MaxDelay time.Duration
	// Budget caps the summed backoff sleep per query; 0 defaults to
	// 5s. Attempts stop early once the budget is spent even if
	// MaxAttempts remain.
	Budget time.Duration
}

// jitterRng backs backoff jitter for every policy; package-level so
// RetryPolicy stays a plain copyable value (it rides inside Config).
var (
	jitterMu  sync.Mutex
	jitterRng *rand.Rand
)

// IsTransient is the retryability test: storage faults the
// fault layer classifies as self-clearing. Anything already mapped to
// the library's typed errors (cancellation, deadlines, budgets,
// admission) is never retryable at this layer — the caller owns those.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, aw.ErrCanceled) || errors.Is(err, aw.ErrDeadlineExceeded) ||
		errors.Is(err, aw.ErrBudgetExceeded) || errors.Is(err, aw.ErrAdmissionRejected) {
		return false
	}
	return faultfs.IsTransient(err)
}

// backoff computes the jittered delay before retry attempt n (1-based:
// the delay after the nth failure), honoring the remaining budget.
func (p RetryPolicy) backoff(n int, remaining time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	d := base << uint(n-1)
	if d <= 0 || d > max { // <= 0 catches shift overflow
		d = max
	}
	// Full jitter in [d/2, d): desynchronizes retry herds without ever
	// retrying instantly.
	jitterMu.Lock()
	if jitterRng == nil {
		jitterRng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	d = d/2 + time.Duration(jitterRng.Int63n(int64(d/2)+1))
	jitterMu.Unlock()
	if d > remaining {
		d = remaining
	}
	return d
}

// Do runs fn (attempt is 1-based) until it succeeds, fails permanently,
// exhausts MaxAttempts or the backoff budget, or ctx ends. It returns
// the last error and the number of attempts made. rec (nil-safe)
// counts retries under obs.MServeRetries.
func (p RetryPolicy) Do(ctx context.Context, rec *obs.Recorder, fn func(attempt int) error) (attempts int, err error) {
	maxAttempts := p.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	budget := p.Budget
	if budget <= 0 {
		budget = 5 * time.Second
	}
	for attempt := 1; ; attempt++ {
		attempts = attempt
		err = fn(attempt)
		if err == nil || !IsTransient(err) || attempt >= maxAttempts {
			return attempts, err
		}
		d := p.backoff(attempt, budget)
		if d <= 0 {
			return attempts, err
		}
		budget -= d
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return attempts, err
		}
		rec.Counter(obs.MServeRetries).Add(1)
	}
}
