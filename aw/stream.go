package aw

import (
	"context"
	"fmt"
	"time"

	"awra/internal/exec/sortscan"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/qguard"
)

// Stream is a continuous evaluation session: records pushed in sort
// order flow through the one-pass streaming engine, and finalized
// measure values are delivered through the Emit callback as soon as no
// future record can change them. This is the natural mode for the
// paper's monitoring workloads, where logs arrive ordered by time.
type Stream struct {
	s        *sortscan.Session
	compiled *Compiled
	key      SortKey
	cancel   context.CancelFunc
}

// StreamOptions configures streaming sessions (RunStream). It lists
// only what a session reads: a session always runs the one-pass
// streaming engine, reads no file and never spills, so the batch knobs
// of ExecOptions have no meaning here.
type StreamOptions struct {
	// SortKey is the order records will arrive in; nil asks the
	// optimizer (which usually picks a time-leading key for monitoring
	// schemas, matching arrival order).
	SortKey SortKey
	// Emit receives each finalized (measure, region, value).
	Emit func(measure string, key Key, value float64)
	// Recorder, if non-nil, collects the session's span tree and engine
	// metrics, published once at Close.
	Recorder *Recorder
	// Timeout, if positive, bounds the session's wall-clock time; once
	// it lapses pushes fail with ErrDeadlineExceeded.
	Timeout time.Duration
	// MaxLiveCells caps simultaneously live hash entries (the streaming
	// frontier). 0 = unlimited.
	MaxLiveCells int64
	// MaxResultRows caps total finalized output rows across all
	// non-hidden measures. 0 = unlimited.
	MaxResultRows int64
}

// RunStream compiles the workflow and starts a streaming session bound
// to ctx: canceling the context makes subsequent pushes fail with
// ErrCanceled, and the StreamOptions guardrails (Timeout, MaxLiveCells,
// MaxResultRows) are enforced cooperatively at push strides.
func RunStream(ctx context.Context, w *Workflow, o StreamOptions) (*Stream, error) {
	c, err := w.Compile()
	if err != nil {
		return nil, err
	}
	return RunStreamCompiled(ctx, c, o)
}

// RunStreamCompiled is RunStream over a compiled workflow.
func RunStreamCompiled(ctx context.Context, c *Compiled, o StreamOptions) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.MaxLiveCells < 0 || o.MaxResultRows < 0 {
		return nil, fmt.Errorf("aw: negative resource budget")
	}
	var cancel context.CancelFunc
	if o.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
	}
	g := qguard.New(ctx, qguard.Limits{
		MaxLiveCells:  o.MaxLiveCells,
		MaxResultRows: o.MaxResultRows,
	})
	st, err := openStreamCompiled(c, o, g)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	st.cancel = cancel
	return st, nil
}

func openStreamCompiled(c *Compiled, o StreamOptions, g *qguard.Guard) (*Stream, error) {
	st := &plan.Stats{}
	key := o.SortKey
	if key == nil {
		ch, err := opt.Best(c, st)
		if err != nil {
			return nil, err
		}
		key = ch.Key
	}
	nk, err := key.Normalize(c.Schema)
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(c, nk, st)
	if err != nil {
		return nil, err
	}
	var emit sortscan.EmitFunc
	if o.Emit != nil {
		emit = sortscan.EmitFunc(o.Emit)
	}
	s := sortscan.NewSession(c, pl, sortscan.SessionOptions{
		Emit:     emit,
		Recorder: o.Recorder,
		Guard:    g,
	})
	return &Stream{s: s, compiled: c, key: nk}, nil
}

// SortKey returns the order records must be pushed in.
func (st *Stream) SortKey() SortKey { return st.key }

// Workflow returns the compiled workflow (for resolving measure codecs
// in Emit callbacks).
func (st *Stream) Workflow() *Compiled { return st.compiled }

// Push feeds one record. Records must arrive in SortKey order: a
// record whose sort-key codes compare below the previous record's is
// rejected. Records that tie on the key may arrive in any order.
func (st *Stream) Push(rec *Record) error { return st.s.Push(rec) }

// Records reports how many records have been pushed.
func (st *Stream) Records() int64 { return st.s.Records() }

// LiveCells reports the current streaming frontier size.
func (st *Stream) LiveCells() int64 { return st.s.LiveCells() }

// Close flushes everything and returns the complete results. It also
// releases the session's deadline timer when one was set.
func (st *Stream) Close() (Results, error) {
	if st.cancel != nil {
		defer st.cancel()
	}
	res, err := st.s.Close()
	if err != nil {
		return nil, err
	}
	return res.Tables, nil
}
