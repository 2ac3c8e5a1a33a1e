package aw

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"

	"awra/internal/obs"
	"awra/internal/obs/flight"
	"awra/internal/qguard"
)

// Typed errors returned by Run and RunCompiled. Match them with
// errors.Is: engines wrap them with context but never hide them.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = qguard.ErrCanceled
	// ErrDeadlineExceeded reports that the query's deadline (context or
	// QueryOptions.Timeout) passed before the query finished.
	ErrDeadlineExceeded = qguard.ErrDeadlineExceeded
	// ErrBudgetExceeded reports that a hard resource guardrail
	// (MaxLiveCells, MaxResultRows, MaxSpillBytes) tripped.
	ErrBudgetExceeded = qguard.ErrBudgetExceeded
)

// ErrAdmissionRejected reports that a query never started: the serving
// layer's admission control turned it away (per-tenant concurrency
// limit, full wait queue, load shedding, or a draining server). It is
// the library-level sentinel behind HTTP 429/503 responses, so clients
// embedding the serve package match one error vocabulary whether they
// reach the service over HTTP or in process. Rejections are cheap by
// design — the query was refused before any planning or I/O.
var ErrAdmissionRejected = errors.New("aw: admission rejected")

// BudgetError is the concrete error behind ErrBudgetExceeded; it names
// the resource that tripped and the limit and observed values.
type BudgetError = qguard.BudgetError

// Budget resource names found in BudgetError.Resource.
const (
	ResLiveCells  = qguard.ResLiveCells
	ResResultRows = qguard.ResResultRows
	ResSpillBytes = qguard.ResSpillBytes
)

// AsBudgetError extracts a *BudgetError from an error chain.
func AsBudgetError(err error) (*BudgetError, bool) { return qguard.AsBudget(err) }

// Run compiles the workflow (if needed) and evaluates it under ctx:
// canceling the context aborts the query promptly (engines check
// cooperatively at scan strides) with ErrCanceled, and a context or
// Timeout deadline surfaces as ErrDeadlineExceeded.
func Run(ctx context.Context, w *Workflow, in Input, opts ...QueryOptions) (Results, error) {
	c, err := w.Compile()
	if err != nil {
		// Compile failures never reach the engine (or the in-flight
		// registry), but the history must not have silent gaps: record
		// the rejection with what little identity the inputs give us.
		if len(opts) > 0 && opts[0].History != nil {
			opts[0].History.Append(&HistoryRecord{
				RequestID:    opts[0].RequestID,
				CollectionFP: collectionFingerprint(in),
				Engine:       opts[0].Engine.String(),
				Outcome:      OutcomeError,
				Error:        err.Error(),
			})
		}
		return nil, err
	}
	return RunCompiled(ctx, c, in, opts...)
}

// RunCompiled evaluates a compiled workflow under ctx. Beyond
// cancellation, it is the robustness boundary of the library:
//
//   - hard guardrails (MaxLiveCells, MaxResultRows, MaxSpillBytes)
//     turn runaway queries into ErrBudgetExceeded instead of OOM kills
//     or unbounded outputs;
//   - under EngineAuto, a sort/scan attempt that blows the live-cell
//     budget is retried once as a multi-pass plan (the paper's
//     Section 6 decision procedure, applied reactively when the
//     optimizer's estimate proved wrong) — counted in
//     fallback_engine_switches;
//   - engine panics are recovered and returned as errors, so a bug in
//     an evaluator cannot take down the caller's process.
func RunCompiled(ctx context.Context, c *Compiled, in Input, opts ...QueryOptions) (Results, error) {
	var o QueryOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	res, _, err := runResolved(ctx, c, in, o)
	return res, err
}

// runResolved is RunCompiled with the EngineAuto decision surfaced, so
// ExplainAnalyze can label the profile with the engine that actually
// ran. It also owns the query's process-level registration: every run
// appears in obs.DefaultInflight for its duration (with an internal
// recorder when the caller supplied none, so live snapshots still carry
// phase and progress), and the goroutine runs under runtime/pprof
// labels (query_id) that engine workers extend with a phase label.
func runResolved(ctx context.Context, c *Compiled, in Input, o QueryOptions) (res Results, engine Engine, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if no, nerr := o.ExecOptions.normalize(); nerr != nil {
		return nil, o.Engine, nerr
	} else {
		o.ExecOptions = no
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	if o.Recorder == nil {
		o.Recorder = obs.New()
	}
	// Every run gets a stable flight-recorder trace ID. Callers that
	// must know it up front (the serve layer echoing it to clients, a
	// CLI printing the trace) pass one in; retried requests reuse theirs
	// so all attempts merge into one trace.
	if o.TraceID == "" {
		o.TraceID = flight.NewTraceID()
	}
	inq := obs.DefaultInflight.Begin(strings.Join(c.Outputs(), ","), o.Recorder, nil)
	inq.SetTraceID(o.TraceID)
	defer inq.Finish()
	// Label this goroutine (and, through the guard's context, every
	// engine worker) so CPU profiles attribute samples to the query.
	caller := ctx
	ctx = pprof.WithLabels(ctx, pprof.Labels("query_id", strconv.FormatInt(inq.ID(), 10)))
	pprof.SetGoroutineLabels(ctx)
	defer pprof.SetGoroutineLabels(caller)
	limits := qguard.Limits{
		MaxLiveCells:    o.MaxLiveCells,
		MaxResultRows:   o.MaxResultRows,
		MaxSpillBytes:   o.MaxSpillBytes,
		SkipCorruptRows: o.SkipCorruptRows,
	}
	g := qguard.New(ctx, limits)
	// One query span covers the whole run, including any multipass
	// fallback retry, so history and in-flight views see a single
	// query with its true end-to-end phases.
	qSpan := o.Recorder.Start(obs.SpanQuery)
	qSpan.SetAttr("trace_id", o.TraceID)
	inq.SetSpan(qSpan)
	defer func() {
		if r := recover(); r != nil {
			res = nil
			if a, ok := r.(qguard.Abort); ok {
				err = a.Err
			} else {
				err = fmt.Errorf("aw: internal error: %v\n%s", r, debug.Stack())
			}
		}
		qSpan.End()
		reportOutcome(o.Recorder, g, err)
		rec := buildRecord(c, in, &o, g, qSpan, engine, err)
		if o.History != nil {
			// Best effort: a full disk must not turn a finished query
			// into a failure.
			_ = o.History.Append(rec)
		}
		// Commit the finished attempt into the flight recorder (one
		// trace per trace ID; serve-layer retries merge as attempts).
		commitFlightTrace(&o, rec, qSpan.Snapshot())
	}()

	if o.AutoStats {
		if in.path == "" {
			return nil, o.Engine, fmt.Errorf("aw: AutoStats requires a file input")
		}
		cards, statsErr := CollectStats(in.path, 200000)
		if statsErr != nil {
			return nil, o.Engine, statsErr
		}
		o.BaseCards = cards
		o.AutoStats = false
	}
	st := planStats(c, in, &o)

	wasAuto := o.Engine == EngineAuto
	res, engine, err = runEngines(c, in, o, st, g, inq, qSpan)
	// The multipass fallback needs a file input; for in-memory inputs the
	// original BudgetError stands (retrying would replace it with an
	// unrelated "requires a file input" error).
	if err != nil && wasAuto && (engine == EngineSortScan || engine == EngineShardScan) && in.path != "" {
		if be, ok := qguard.AsBudget(err); ok && be.Resource == qguard.ResLiveCells {
			// The optimizer judged one sort/scan pass affordable but the
			// run-time frontier disagreed; degrade to multi-pass, whose
			// per-pass footprints are planned under the budget.
			o.Recorder.Counter(obs.MFallbackSwitches).Add(1)
			retry := o
			retry.Engine = EngineMultiPass
			if retry.MemoryBudget <= 0 {
				// Express the cell budget as a per-pass byte footprint for
				// the multi-pass planner (~64 bytes per live cell, the
				// planner's own cost model).
				retry.MemoryBudget = limits.MaxLiveCells * 64
			}
			// The retry re-reads the same file and re-skips the same
			// corrupt rows, so the first attempt's degraded-mode count is
			// NOT pre-published here: the deferred reportOutcome publishes
			// the final guard's count once, and a retried-then-successful
			// read never double-counts rows_corrupt_skipped.
			g = qguard.New(ctx, limits)
			res, engine, err = runEngines(c, in, retry, st, g, inq, qSpan)
		}
	}
	return res, engine, err
}

// reportOutcome publishes the robustness counters for one finished
// attempt: cancellations, budget rejections, and degraded-mode corrupt
// rows skipped.
func reportOutcome(rec *Recorder, g *qguard.Guard, err error) {
	if n := g.Stats().CorruptRows; n > 0 {
		rec.Counter(obs.MRowsCorruptSkipped).Add(n)
	}
	switch outcome, _ := OutcomeOf(err); outcome {
	case OutcomeCanceled:
		rec.Counter(obs.MQueriesCanceled).Add(1)
	case OutcomeBudget:
		rec.Counter(obs.MBudgetRejections).Add(1)
	}
}
