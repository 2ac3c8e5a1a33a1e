// Package qguard is the query-control substrate shared by every
// evaluator: cooperative cancellation (context + per-query deadline),
// hard resource guardrails (live cells, result rows, spill bytes), and
// the degraded-read policy for checksummed storage. A *Guard is
// threaded from the public API through engines and the storage layer;
// a nil *Guard is a valid no-op guard (like a nil obs.Recorder), so
// instrumented code never branches on "is robustness enabled".
//
// The guard's job is the flip side of the paper's Section 6
// memory-budget decision procedure: the optimizer *estimates* that a
// plan fits the budget, and the guard *enforces* that the estimate was
// right at run time, turning runaway queries into typed errors instead
// of OOM kills or unbounded result sets.
package qguard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Typed errors surfaced through the aw package. The messages carry the
// public "aw:" prefix because user code matches these sentinels via
// errors.Is on errors returned from the aw API.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = errors.New("aw: query canceled")
	// ErrDeadlineExceeded reports that the query's deadline passed.
	ErrDeadlineExceeded = errors.New("aw: query deadline exceeded")
	// ErrBudgetExceeded reports that a hard resource guardrail tripped.
	ErrBudgetExceeded = errors.New("aw: resource budget exceeded")
)

// Budget resources, used in BudgetError.Resource.
const (
	ResLiveCells  = "live_cells"
	ResResultRows = "result_rows"
	ResSpillBytes = "spill_bytes"
)

// BudgetError wraps ErrBudgetExceeded with the resource that tripped,
// so callers can distinguish a blown memory frontier (recoverable by
// switching to a multi-pass plan) from an oversized result set (not).
type BudgetError struct {
	Resource string
	Limit    int64
	Used     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("aw: resource budget exceeded: %s %d > limit %d", e.Resource, e.Used, e.Limit)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) true.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// AsBudget extracts a BudgetError from an error chain.
func AsBudget(err error) (*BudgetError, bool) {
	var be *BudgetError
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}

// Limits configures a guard's hard guardrails. Zero means unlimited.
type Limits struct {
	// MaxLiveCells caps simultaneously live hash entries in streaming
	// engines (the paper's memory frontier).
	MaxLiveCells int64
	// MaxResultRows caps total finalized output rows across measures.
	MaxResultRows int64
	// MaxSpillBytes caps bytes written to temporary files by sorts and
	// spills.
	MaxSpillBytes int64
	// SkipCorruptRows switches checksummed reads into degraded mode:
	// corrupt rows are counted and skipped instead of failing the query.
	SkipCorruptRows bool
}

// Scale returns a tightened copy of the limits: every nonzero budget
// is multiplied by f (clamped to at least 1 so a budget never silently
// becomes "unlimited"), while zero budgets stay unlimited — tightening
// must not invent limits the operator never set. It is the overload
// controller's hook: under pressure the serve layer admits queries with
// Scale(0.5) (or tighter) limits, shrinking each query's footprint so
// the process degrades instead of shedding. f outside (0, 1] returns
// the limits unchanged.
func (l Limits) Scale(f float64) Limits {
	if f <= 0 || f >= 1 {
		return l
	}
	scale := func(v int64) int64 {
		if v <= 0 {
			return v
		}
		s := int64(float64(v) * f)
		if s < 1 {
			s = 1
		}
		return s
	}
	l.MaxLiveCells = scale(l.MaxLiveCells)
	l.MaxResultRows = scale(l.MaxResultRows)
	l.MaxSpillBytes = scale(l.MaxSpillBytes)
	return l
}

// Guard carries one query's cancellation and budget state. All methods
// are nil-safe; a nil Guard enforces nothing. A Guard may be shared
// across goroutines (partitions, parallel sorts): budget accounting is
// atomic and the first error wins and sticks.
type Guard struct {
	ctx        context.Context
	limits     Limits
	resultRows atomic.Int64
	spillBytes atomic.Int64
	corrupt    atomic.Int64
	// sticky holds the first fatal error observed, so every later check
	// fails fast without re-deriving it from the context. The error is
	// boxed so the pointer's concrete type is always *stickyErr:
	// atomic CAS slots panic if stores mix concrete types, and fail is
	// called with both sentinel errors and *BudgetError.
	sticky atomic.Pointer[stickyErr]
	// root, when non-nil, is the guard whose accumulators and sticky
	// error this derived view shares (see Shard). Totals for result
	// rows, spill bytes, and corrupt rows are query-global, and the
	// first fatal error anywhere must stop every worker; only the
	// live-cell limit is per-view.
	root *Guard
}

// base returns the guard owning the shared accumulators: the root for
// a derived shard view, the guard itself otherwise.
func (g *Guard) base() *Guard {
	if g.root != nil {
		return g.root
	}
	return g
}

// Shard derives a per-worker view of the guard for parallel execution
// across n workers: the live-cell budget is divided evenly (each worker
// checks its own frontier against an n-th of the limit, rounded up),
// while cancellation, the sticky first error, and the result-row,
// spill-byte, and corrupt-row accounting remain shared with the parent
// so those budgets stay query-global. A nil guard shards to nil.
func (g *Guard) Shard(n int) *Guard {
	if g == nil {
		return nil
	}
	if n < 1 {
		n = 1
	}
	lim := g.limits
	if lim.MaxLiveCells > 0 {
		lim.MaxLiveCells = (lim.MaxLiveCells + int64(n) - 1) / int64(n)
	}
	return &Guard{ctx: g.ctx, limits: lim, root: g.base()}
}

// stickyErr boxes the guard's first fatal error (see Guard.sticky).
type stickyErr struct{ err error }

// New builds a guard bound to ctx. A nil ctx means context.Background().
func New(ctx context.Context, limits Limits) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Guard{ctx: ctx, limits: limits}
}

// Context returns the guard's context (context.Background() for a nil
// guard).
func (g *Guard) Context() context.Context {
	if g == nil {
		return context.Background()
	}
	return g.ctx
}

// Err checks for cancellation: it returns ErrCanceled or
// ErrDeadlineExceeded once the context is done, any previously recorded
// sticky error, and nil otherwise. Call it at loop strides, not per
// record — storage.Reader and the engines stride internally.
func (g *Guard) Err() error {
	if g == nil {
		return nil
	}
	if box := g.base().sticky.Load(); box != nil {
		return box.err
	}
	if err := g.ctx.Err(); err != nil {
		return g.fail(mapCtxErr(err))
	}
	return nil
}

func mapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}

// fail records err as the guard's sticky error (first writer wins) and
// returns the winning error.
func (g *Guard) fail(err error) error {
	b := g.base()
	if b.sticky.CompareAndSwap(nil, &stickyErr{err: err}) {
		return err
	}
	return b.sticky.Load().err
}

// NoteLiveCells checks the live-cell high-water mark against the
// budget. Engines call it when the frontier grows.
func (g *Guard) NoteLiveCells(live int64) error {
	if g == nil || g.limits.MaxLiveCells <= 0 || live <= g.limits.MaxLiveCells {
		return nil
	}
	return g.fail(&BudgetError{Resource: ResLiveCells, Limit: g.limits.MaxLiveCells, Used: live})
}

// NoteResultRows adds finalized output rows to the query's total and
// checks the budget.
func (g *Guard) NoteResultRows(delta int64) error {
	if g == nil {
		return nil
	}
	total := g.base().resultRows.Add(delta)
	if g.limits.MaxResultRows > 0 && total > g.limits.MaxResultRows {
		return g.fail(&BudgetError{Resource: ResResultRows, Limit: g.limits.MaxResultRows, Used: total})
	}
	return nil
}

// NoteSpill adds spilled bytes to the query's total and checks the
// budget.
func (g *Guard) NoteSpill(bytes int64) error {
	if g == nil {
		return nil
	}
	total := g.base().spillBytes.Add(bytes)
	if g.limits.MaxSpillBytes > 0 && total > g.limits.MaxSpillBytes {
		return g.fail(&BudgetError{Resource: ResSpillBytes, Limit: g.limits.MaxSpillBytes, Used: total})
	}
	return nil
}

// SkipCorruptRows reports whether corrupt rows should be skipped and
// counted instead of failing the read.
func (g *Guard) SkipCorruptRows() bool { return g != nil && g.limits.SkipCorruptRows }

// NoteCorruptRows records how many corrupt rows one read has skipped
// so far (degraded mode). The guard keeps the largest read's count:
// every read of a file skips the same rows, which count once.
func (g *Guard) NoteCorruptRows(n int64) {
	if g == nil {
		return
	}
	c := &g.base().corrupt
	for old := c.Load(); n > old && !c.CompareAndSwap(old, n); old = c.Load() {
	}
}

// CorruptRows returns the largest number of corrupt rows one read
// skipped.
func (g *Guard) CorruptRows() int64 {
	if g == nil {
		return 0
	}
	return g.base().corrupt.Load()
}

// ResultRows returns the finalized-row total recorded so far.
func (g *Guard) ResultRows() int64 {
	if g == nil {
		return 0
	}
	return g.base().resultRows.Load()
}

// SpillBytes returns the spill total recorded so far.
func (g *Guard) SpillBytes() int64 {
	if g == nil {
		return 0
	}
	return g.base().spillBytes.Load()
}

// Stats is a point-in-time view of a guard's shared accumulators,
// suitable for live in-flight snapshots and post-run profiles.
type Stats struct {
	ResultRows  int64 `json:"result_rows"`
	SpillBytes  int64 `json:"spill_bytes"`
	CorruptRows int64 `json:"corrupt_rows,omitempty"`
}

// Stats snapshots the query-global accumulators (zero for a nil guard).
// Safe to call concurrently with running workers.
func (g *Guard) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	b := g.base()
	return Stats{
		ResultRows:  b.resultRows.Load(),
		SpillBytes:  b.spillBytes.Load(),
		CorruptRows: b.corrupt.Load(),
	}
}

// Abort carries a guard error across a panic unwind. Sort comparators
// cannot return errors, so a cancelable sort panics with an Abort and
// the sort's caller converts it back with RecoverAbort.
type Abort struct{ Err error }

// RecoverAbort converts a panicking Abort back into an error; any
// other panic is re-raised. Use as: defer qguard.RecoverAbort(&err).
func RecoverAbort(errp *error) {
	switch r := recover().(type) {
	case nil:
	case Abort:
		*errp = r.Err
	default:
		panic(r)
	}
}

// CheckAbort panics with an Abort if the guard reports an error. It is
// the stride body for cancelable comparators.
func (g *Guard) CheckAbort() {
	if err := g.Err(); err != nil {
		panic(Abort{Err: err})
	}
}
