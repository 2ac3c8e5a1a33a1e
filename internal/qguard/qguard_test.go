package qguard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilGuardIsNoOp(t *testing.T) {
	var g *Guard
	if err := g.Err(); err != nil {
		t.Fatalf("nil guard Err: %v", err)
	}
	if err := g.NoteLiveCells(1 << 40); err != nil {
		t.Fatalf("nil guard NoteLiveCells: %v", err)
	}
	if err := g.NoteResultRows(1 << 40); err != nil {
		t.Fatalf("nil guard NoteResultRows: %v", err)
	}
	if err := g.NoteSpill(1 << 40); err != nil {
		t.Fatalf("nil guard NoteSpill: %v", err)
	}
	if g.SkipCorruptRows() {
		t.Fatal("nil guard should not skip corrupt rows")
	}
	g.NoteCorruptRows(1) // must not panic
	if g.Context() == nil {
		t.Fatal("nil guard Context must not be nil")
	}
	g.CheckAbort() // must not panic
}

func TestCancelMapsToErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	if err := g.Err(); err != nil {
		t.Fatalf("before cancel: %v", err)
	}
	cancel()
	if err := g.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestDeadlineMapsToErrDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	g := New(ctx, Limits{})
	if err := g.Err(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
}

func TestBudgets(t *testing.T) {
	g := New(context.Background(), Limits{MaxLiveCells: 10, MaxResultRows: 5, MaxSpillBytes: 100})
	if err := g.NoteLiveCells(10); err != nil {
		t.Fatalf("at limit: %v", err)
	}
	err := g.NoteLiveCells(11)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	be, ok := AsBudget(err)
	if !ok || be.Resource != ResLiveCells || be.Limit != 10 || be.Used != 11 {
		t.Fatalf("bad BudgetError: %+v ok=%v", be, ok)
	}
	// The first error sticks: later checks keep returning it.
	if err2 := g.Err(); !errors.Is(err2, ErrBudgetExceeded) {
		t.Fatalf("sticky error lost: %v", err2)
	}
}

func TestResultRowsAccumulate(t *testing.T) {
	g := New(context.Background(), Limits{MaxResultRows: 5})
	if err := g.NoteResultRows(3); err != nil {
		t.Fatal(err)
	}
	if err := g.NoteResultRows(2); err != nil {
		t.Fatal(err)
	}
	err := g.NoteResultRows(1)
	be, ok := AsBudget(err)
	if !ok || be.Resource != ResResultRows || be.Used != 6 {
		t.Fatalf("got %v", err)
	}
}

// TestCorruptRowsKeepLargestRead: reads of one file skip the same rows,
// so the guard keeps the largest read's count, not the sum — across
// shard views too.
func TestCorruptRowsKeepLargestRead(t *testing.T) {
	g := New(context.Background(), Limits{SkipCorruptRows: true})
	for _, n := range []int64{1, 2, 3} { // the first read
		g.NoteCorruptRows(n)
	}
	for _, n := range []int64{1, 2} { // a second read, not yet as far
		g.Shard(2).NoteCorruptRows(n)
	}
	if got := g.CorruptRows(); got != 3 {
		t.Fatalf("CorruptRows = %d, want 3", got)
	}
	if got := g.Stats().CorruptRows; got != 3 {
		t.Fatalf("Stats().CorruptRows = %d, want 3", got)
	}
}

func TestFirstErrorWinsUnderConcurrency(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{MaxSpillBytes: 1})
	cancel()
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				errs[i] = g.Err()
			} else {
				errs[i] = g.NoteSpill(100)
			}
		}(i)
	}
	wg.Wait()
	first := g.Err()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d saw no error", i)
		}
	}
	// Whatever won must be returned consistently from now on.
	if again := g.Err(); !errors.Is(again, first) {
		t.Fatalf("sticky error changed: %v then %v", first, again)
	}
}

// Regression: fail is called with different concrete error types
// (sentinel errors vs *BudgetError). When the second type arrives after
// the first is stored, the sticky slot must keep returning the winner
// instead of panicking on an inconsistently typed atomic store.
func TestFailMixedConcreteTypes(t *testing.T) {
	// Cancellation first, budget error second.
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{MaxSpillBytes: 1})
	cancel()
	if err := g.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if err := g.NoteSpill(100); !errors.Is(err, ErrCanceled) {
		t.Fatalf("budget loser: got %v, want sticky ErrCanceled", err)
	}

	// Budget error first, cancellation second.
	ctx2, cancel2 := context.WithCancel(context.Background())
	g2 := New(ctx2, Limits{MaxSpillBytes: 1})
	if err := g2.NoteSpill(100); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	cancel2()
	if err := g2.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("cancel loser: got %v, want sticky ErrBudgetExceeded", err)
	}
}

func TestRecoverAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	cancel()
	err := func() (err error) {
		defer RecoverAbort(&err)
		g.CheckAbort()
		return nil
	}()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

func TestRecoverAbortRepanicsForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	var err error
	defer RecoverAbort(&err)
	panic("not an abort")
}

// TestLimitsScale: the overload controller's tightening hook must
// shrink set budgets, leave unlimited (zero) budgets unlimited, never
// round a budget down to zero, and ignore nonsense factors.
func TestLimitsScale(t *testing.T) {
	l := Limits{MaxLiveCells: 1000, MaxResultRows: 3, MaxSpillBytes: 0, SkipCorruptRows: true}

	s := l.Scale(0.5)
	if s.MaxLiveCells != 500 {
		t.Errorf("MaxLiveCells = %d, want 500", s.MaxLiveCells)
	}
	if s.MaxResultRows != 1 {
		t.Errorf("MaxResultRows = %d, want 1", s.MaxResultRows)
	}
	if s.MaxSpillBytes != 0 {
		t.Errorf("MaxSpillBytes = %d, want 0 (unlimited stays unlimited)", s.MaxSpillBytes)
	}
	if !s.SkipCorruptRows {
		t.Error("SkipCorruptRows lost in Scale")
	}

	// A tiny budget tightens to 1, never 0 (0 would mean unlimited).
	if got := (Limits{MaxResultRows: 1}).Scale(0.1).MaxResultRows; got != 1 {
		t.Errorf("Scale(0.1) of 1 row = %d, want 1", got)
	}

	// Factors outside (0, 1) are identity.
	for _, f := range []float64{0, -1, 1, 2} {
		if got := l.Scale(f); got != l {
			t.Errorf("Scale(%v) = %+v, want unchanged", f, got)
		}
	}
}
