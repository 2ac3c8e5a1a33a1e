package aw

import (
	"fmt"
	"strings"
	"time"

	"awra/internal/exec/multipass"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/qguard"
	"awra/internal/relbaseline"
	"awra/internal/resultstore"
	"awra/internal/stats"
)

// Engine selects an evaluation strategy.
type Engine int

const (
	// EngineSortScan is the paper's one-pass sort/scan algorithm
	// (default): sort once by an optimizer-chosen key, stream all
	// measures with watermark-based early flushing.
	EngineSortScan Engine = iota
	// EngineSingleScan evaluates without sorting: one hash table per
	// measure, optionally spilling under a memory budget.
	EngineSingleScan
	// EngineMultiPass partitions measures across several sort/scan
	// passes when one pass's footprint exceeds the budget.
	EngineMultiPass
	// EngineRelational is the materializing SQL-style baseline; it is
	// intended for comparison, not production use.
	EngineRelational
	// EngineAuto applies the paper's Section 6 decision procedure:
	// simple scan when every hash table fits the budget, otherwise the
	// best-key sort/scan, otherwise multi-pass.
	EngineAuto
	// EngineShardScan splits the fact records into Parallelism shards by
	// the leading part of the sort key (the optimizer's, or
	// QueryOptions.SortKey's, which so picks the partition unit), runs
	// an independent sort/scan per shard in parallel, and combines the
	// per-shard outputs (concatenation for nesting measures, aggregate
	// state merge for measures whose regions span shards). Requires a
	// shardable workflow; EngineAuto selects it automatically when
	// Parallelism > 1 and the workflow qualifies.
	EngineShardScan
)

// engineNames is the single source of truth tying each engine constant
// to its name: String() reads it, ParseEngine accepts exactly its
// entries, and UnknownEngineError lists it — so help text and the
// parser cannot drift, and every constant round-trips through its
// String() form.
var engineNames = [...]string{
	EngineSortScan:   "sortscan",
	EngineSingleScan: "singlescan",
	EngineMultiPass:  "multipass",
	EngineRelational: "relational",
	EngineAuto:       "auto",
	EngineShardScan:  "shardscan",
}

// EngineNames returns the canonical engine names, in constant order.
func EngineNames() []string {
	out := make([]string, len(engineNames))
	copy(out, engineNames[:])
	return out
}

func (e Engine) String() string {
	if e >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// UnknownEngineError reports an engine name ParseEngine does not
// recognize, carrying the valid canonical names.
type UnknownEngineError struct {
	// Name is the rejected input.
	Name string
	// Valid lists the canonical engine names.
	Valid []string
}

func (e *UnknownEngineError) Error() string {
	return fmt.Sprintf("aw: unknown engine %q (valid: %s)", e.Name, strings.Join(e.Valid, ", "))
}

// ParseEngine resolves an engine name: every canonical String() form,
// and "" (the default engine). Any other name returns an
// *UnknownEngineError listing the valid names.
func ParseEngine(name string) (Engine, error) {
	if name == "" {
		return EngineSortScan, nil
	}
	for e, n := range engineNames {
		if name == n {
			return Engine(e), nil
		}
	}
	return 0, &UnknownEngineError{Name: name, Valid: EngineNames()}
}

// ExecOptions are the execution knobs of batch evaluation: engine
// selection, parallelism, memory and guardrail budgets, observability,
// and the degraded-read policy. QueryOptions embeds it, and the serving
// layer's overload controller tightens it (TightenBudgets). Streaming
// sessions take the few knobs they read in StreamOptions.
type ExecOptions struct {
	// Engine selects the evaluation strategy (default EngineSortScan).
	Engine Engine
	// MemoryBudget bounds memory: spill threshold for single-scan,
	// per-pass footprint for multi-pass, and the decision input for
	// EngineAuto. 0 = unlimited / one pass.
	MemoryBudget int64
	// Parallelism is the shard count of EngineShardScan; 0 or 1 means
	// serial. Every other engine is serial whatever the count. Under
	// EngineAuto, Parallelism > 1 upgrades a sort/scan decision to the
	// sharded engine whenever the workflow shards safely (every measure
	// either nests inside shard units or merges commutatively).
	Parallelism int
	// Recorder, if non-nil, collects the query's span tree (rooted at a
	// "query" span) and engine metrics, published once per run. A nil
	// recorder is a no-op.
	Recorder *Recorder
	// Timeout, if positive, bounds the query's wall-clock time; when it
	// lapses the run aborts with ErrDeadlineExceeded. It composes with
	// any deadline already on the context passed to Run.
	Timeout time.Duration
	// MaxLiveCells caps simultaneously live hash entries (the paper's
	// memory frontier) across streaming engines. 0 = unlimited. Under
	// EngineAuto, a sort/scan run that trips this guardrail is retried
	// once as a multi-pass plan before the error is surfaced. Parallel
	// engines divide the budget evenly across their workers.
	MaxLiveCells int64
	// MaxResultRows caps total finalized output rows across all
	// non-hidden measures. 0 = unlimited.
	MaxResultRows int64
	// MaxSpillBytes caps bytes written to temporary files — external-sort
	// runs, single-scan table spills, relational-baseline spools —
	// accounted globally across parallel workers. 0 = unlimited. A sort
	// whose input fits one sort chunk writes no file and charges nothing.
	MaxSpillBytes int64
	// SkipCorruptRows degrades checksummed reads: rows whose CRC does not
	// verify are skipped instead of failing the query, and counted once
	// each in rows_corrupt_skipped however many times the plan reads
	// them. In-memory records carry no checksums.
	SkipCorruptRows bool
	// History, if non-nil, records every run's completion (success,
	// budget trip, cancel, or error) in the persistent query-history
	// log, and lets the planner reuse measured per-node cell counts
	// from earlier completed runs on the same collection (EXPLAIN then
	// labels those estimates "measured"). Open one with OpenHistory and
	// share it across queries.
	History *History
	// RequestID names the client request this run serves. A client
	// that resends the same ID (say, after a failure) supersedes the
	// earlier record in the history, so one request logs one final
	// outcome. Empty means every run logs independently.
	RequestID string
	// TraceID keys this run's entry in the query flight recorder. Empty
	// means the run generates its own ID (NewTraceID). Callers that must
	// know the ID up front — the serve layer echoing it to clients, or a
	// CLI printing the trace — generate one and pass it here. Runs that
	// share an ID (a client resending under one W3C traceparent) land in
	// one trace, one record per run.
	TraceID string
}

// validate rejects negative counts and budgets once, where a batch run
// starts (runResolved), so engines can trust the values they receive.
func (o ExecOptions) validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("aw: negative Parallelism %d", o.Parallelism)
	}
	if o.MemoryBudget < 0 || o.MaxLiveCells < 0 || o.MaxResultRows < 0 || o.MaxSpillBytes < 0 {
		return fmt.Errorf("aw: negative resource budget")
	}
	return nil
}

// TightenBudgets returns a copy of the options with every nonzero
// resource guardrail scaled down by f in (0, 1) — the serving layer's
// overload hook (see qguard.Limits.Scale). Zero (unlimited) budgets
// stay unlimited, and f outside (0, 1) returns the options unchanged.
func (o ExecOptions) TightenBudgets(f float64) ExecOptions {
	if f <= 0 || f >= 1 {
		return o
	}
	l := qguard.Limits{
		MaxLiveCells:  o.MaxLiveCells,
		MaxResultRows: o.MaxResultRows,
		MaxSpillBytes: o.MaxSpillBytes,
	}.Scale(f)
	o.MaxLiveCells = l.MaxLiveCells
	o.MaxResultRows = l.MaxResultRows
	o.MaxSpillBytes = l.MaxSpillBytes
	if o.MemoryBudget > 0 {
		if s := int64(float64(o.MemoryBudget) * f); s >= 1 {
			o.MemoryBudget = s
		} else {
			o.MemoryBudget = 1
		}
	}
	return o
}

// QueryOptions configures batch evaluation (Run, RunCompiled). The
// execution knobs live in the embedded ExecOptions; construct as
//
//	aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineAuto, Parallelism: 4}}
type QueryOptions struct {
	ExecOptions
	// SortKey overrides the optimizer's choice (sortscan/shardscan).
	SortKey SortKey
	// TempDir receives sort runs, single-scan spills and the relational
	// baseline's spooled intermediates; empty uses os.TempDir().
	TempDir string
	// BaseCards estimates per-dimension base cardinalities for the
	// optimizer; nil uses defaults.
	BaseCards []float64
	// AutoStats collects per-dimension cardinality estimates from the
	// input (one extra sampling scan, under the query's guard) before
	// planning, instead of relying on BaseCards or defaults.
	AutoStats bool
}

// Input is a fact-table source for Run. Every engine and AutoStats
// accept either kind.
type Input struct {
	path string
	recs []Record
}

// FromFile reads the fact table from a binary record file.
func FromFile(path string) Input { return Input{path: path} }

// FromRecords evaluates over an in-memory record slice. Every record
// must have the schema's dimension and measure counts; the first that
// does not fails the run with a *RecordShapeError.
func FromRecords(recs []Record) Input { return Input{recs: recs} }

// Results maps measure names to their computed tables.
type Results map[string]*Table

// ResultsEqual reports whether two result sets answer the same query
// identically: the same measure names, each table equal within eps.
// With eps 0 this is the bit-identity discipline the serve cache's
// differential tests pin cached answers against.
func ResultsEqual(a, b Results, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ta := range a {
		tb, ok := b[name]
		if !ok {
			return false
		}
		if (ta == nil) != (tb == nil) {
			return false
		}
		if ta != nil && !ta.Equal(tb, eps) {
			return false
		}
	}
	return true
}

// planStats assembles the planner's cardinality input for one run:
// caller or AutoStats cardinalities (labeled "collected"), paper
// defaults otherwise ("assumed"), plus — when a History is attached —
// a measured-statistics lookup keyed by the collection's fingerprint fp
// and each node's content signature ("measured"). The lookup runs only
// at plan time, never on the scan path.
func planStats(c *Compiled, fp string, o *QueryOptions) *plan.Stats {
	st := &plan.Stats{BaseCard: o.BaseCards}
	if len(o.BaseCards) > 0 {
		st.Source = plan.SourceCollected
	}
	if h := o.History; h != nil {
		st.Measured = func(sig string) (float64, bool) {
			m, ok := h.store.Lookup(fp, sig)
			return m.Cells, ok
		}
	}
	return st
}

// resolveAuto applies the paper's Section 6 decision procedure to an
// EngineAuto query, rewriting o.Engine — and o.SortKey, when sort/scan
// wins and none was given — to the engine that will run. With
// Parallelism > 1, a sort/scan decision upgrades to the sharded engine
// when the workflow splits safely by the sort key's leading part;
// otherwise it stays serial rather than fail. Runs and EXPLAIN both
// resolve here, so EXPLAIN names the engine a run uses.
func resolveAuto(c *Compiled, st *plan.Stats, o *QueryOptions) (opt.Decision, error) {
	d, err := opt.Choose(c, st, float64(o.MemoryBudget))
	if err != nil {
		return d, err
	}
	switch d.Strategy {
	case opt.StrategySingleScan:
		o.Engine = EngineSingleScan
	case opt.StrategySortScan:
		o.Engine = EngineSortScan
		if o.SortKey == nil {
			o.SortKey = d.Key
		}
		if o.Parallelism > 1 {
			if nk, err := SortKey(o.SortKey).Normalize(c.Schema); err == nil {
				if _, err := opt.ShardPrefix(c, nk); err == nil {
					o.Engine = EngineShardScan
				}
			}
		}
	default:
		o.Engine = EngineMultiPass
	}
	return d, nil
}

// runEngines dispatches one evaluation attempt to the selected engine
// under the given guard and query span, returning the engine's result
// and the engine that actually ran (the EngineAuto decision resolved).
// It publishes the optimizer's tallies where it ran it, and the result's
// stats once per run.
func runEngines(c *Compiled, in scan.Input, o QueryOptions, st *plan.Stats, g *qguard.Guard, qSpan *obs.Span) (*scan.Result, Engine, error) {
	qrec := o.Recorder.At(qSpan)
	if o.Engine == EngineAuto {
		optSpan := qrec.Start(obs.SpanOptimize)
		d, err := resolveAuto(c, st, &o)
		optSpan.End()
		if err != nil {
			return nil, o.Engine, err
		}
		publishChoice(qrec, d.KeysScored, d.SortScanBytes)
	}
	qSpan.SetAttr("engine", o.Engine.String())
	eo := scan.EngineOptions{TempDir: o.TempDir, Recorder: qrec, Guard: g}

	var res *scan.Result
	var err error
	switch o.Engine {
	case EngineSortScan, EngineShardScan:
		// The one sort key of a one-pass plan: the caller's or the
		// optimizer's, recorded on the query span, where ExplainAnalyzeCompiled,
		// in-flight snapshots, and history records read it.
		if o.SortKey == nil {
			optSpan := qrec.Start(obs.SpanOptimize)
			ch, err := opt.Best(c, st)
			optSpan.End()
			if err != nil {
				return nil, o.Engine, err
			}
			publishChoice(qrec, ch.KeysScored, ch.EstBytes)
			o.SortKey = ch.Key
		}
		if nk, err := o.SortKey.Normalize(c.Schema); err == nil {
			qSpan.SetAttr("sort_key", nk.String(c.Schema))
		}
		// Parallelism is the shard count of a sharded run; a serial one
		// ignores it.
		run := sortscan.Run
		if o.Engine == EngineShardScan {
			run = sortscan.RunSharded
		}
		res, err = run(c, in, sortscan.Options{EngineOptions: eo, SortKey: o.SortKey, Stats: st, Workers: o.Parallelism})
	case EngineSingleScan:
		res, err = singlescan.Run(c, in, singlescan.Options{EngineOptions: eo, MemoryBudget: o.MemoryBudget})
	case EngineMultiPass:
		res, err = multipass.Run(c, in, multipass.Options{EngineOptions: eo, MemoryBudget: float64(o.MemoryBudget), Stats: st})
	case EngineRelational:
		res, err = relbaseline.Run(c, in, eo)
	default:
		err = fmt.Errorf("aw: unknown engine %v", o.Engine)
	}
	if err != nil {
		return nil, o.Engine, err
	}
	res.Stats.Publish(qrec)
	return res, o.Engine, nil
}

// publishChoice publishes one optimizer run: the sort keys it scored
// and the chosen plan's estimated footprint.
func publishChoice(rec *Recorder, keys int, bestBytes float64) {
	rec.Counter(obs.MOptKeysScored).Add(int64(keys))
	rec.Gauge(obs.GOptBestBytes).SetMax(int64(bestBytes))
}

// CollectStats samples a fact file (up to sampleLimit records; 0 =
// all) and returns per-dimension distinct-value estimates suitable for
// QueryOptions.BaseCards.
func CollectStats(path string, sampleLimit int64) ([]float64, error) {
	st, err := stats.Collect(scan.FileInput(path), nil, stats.Options{SampleLimit: sampleLimit})
	if err != nil {
		return nil, err
	}
	return st.PlanStats().BaseCard, nil
}

// SaveResults persists computed measure tables into a directory (one
// record file per measure plus a JSON manifest) for later sessions.
func SaveResults(dir string, schema *Schema, res Results) error {
	return resultstore.Save(dir, schema, res)
}

// LoadResults reads back measure tables saved with SaveResults,
// validating them against the schema.
func LoadResults(dir string, schema *Schema) (Results, error) {
	return resultstore.Load(dir, schema)
}

// BestSortKey runs the optimizer and returns the chosen key with its
// estimated footprint in bytes.
func BestSortKey(c *Compiled, baseCards []float64) (SortKey, float64, error) {
	ch, err := opt.Best(c, &plan.Stats{BaseCard: baseCards})
	if err != nil {
		return nil, 0, err
	}
	return ch.Key, ch.EstBytes, nil
}

// DOT renders a compiled workflow as a Graphviz diagram in the style
// of the paper's aggregation-workflow figures.
func DOT(c *Compiled) string { return c.DOT() }
