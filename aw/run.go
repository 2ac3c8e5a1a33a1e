package aw

import (
	"fmt"
	"strings"
	"time"

	"awra/internal/exec/multipass"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/qguard"
	"awra/internal/relbaseline"
	"awra/internal/resultstore"
	"awra/internal/stats"
	"awra/internal/storage"
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
	// EngineShardScan splits the fact file into Parallelism shards by
	// the leading part of the sort key (the optimizer's, or
	// QueryOptions.SortKey's, which so picks the partition unit), runs
	// an independent sort/scan per shard in parallel, and combines the
	// per-shard outputs (concatenation for nesting measures, aggregate
	// state merge for measures whose regions span shards). Requires a
	// file input and a shardable workflow; EngineAuto selects it
	// automatically when Parallelism > 1 and the workflow qualifies.
	EngineShardScan
)

// engineNames is the single source of truth tying each engine constant
// to its canonical name: String() reads it, ParseEngine accepts every
// entry, and UnknownEngineError lists it — so help text and the parser
// cannot drift, and every constant round-trips through its String()
// form.
var engineNames = [...]string{
	EngineSortScan:   "sortscan",
	EngineSingleScan: "singlescan",
	EngineMultiPass:  "multipass",
	EngineRelational: "relational",
	EngineAuto:       "auto",
	EngineShardScan:  "shardscan",
}

// engineAliases maps accepted non-canonical spellings (String() never
// produces these, but ParseEngine keeps reading them). "partscan" keeps
// inputs that name the partitioned engine shardscan replaced working;
// shardscan's partition unit is the sort key's leading part.
var engineAliases = map[string]Engine{
	"scan":     EngineSingleScan,
	"db":       EngineRelational,
	"partscan": EngineShardScan,
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
// the aliases "scan", "db" and "partscan", and "" (the default
// engine). Unknown names return an *UnknownEngineError listing the
// valid names.
func ParseEngine(name string) (Engine, error) {
	if name == "" {
		return EngineSortScan, nil
	}
	for e, n := range engineNames {
		if name == n {
			return Engine(e), nil
		}
	}
	if e, ok := engineAliases[name]; ok {
		return e, nil
	}
	return 0, &UnknownEngineError{Name: name, Valid: EngineNames()}
}

// ExecOptions are the execution knobs shared by every entry point:
// engine selection, parallelism, memory and guardrail budgets,
// observability, and the degraded-read policy. QueryOptions and
// StreamOptions embed it, so a new knob is added once and honored
// uniformly by batch and streaming evaluation alike.
type ExecOptions struct {
	// Engine selects the evaluation strategy (default EngineSortScan).
	// Streaming sessions always use the one-pass streaming engine and
	// ignore this field.
	Engine Engine
	// MemoryBudget bounds memory: spill threshold for single-scan,
	// per-pass footprint for multi-pass, and the decision input for
	// EngineAuto. 0 = unlimited / one pass.
	MemoryBudget int64
	// Parallelism is the worker count for parallel evaluation. Two
	// engines use it: it is the shard count for EngineShardScan, and the
	// run-sorting workers of EngineSortScan's external sort (they only
	// have work when the input exceeds one sort chunk). 0 or 1 means
	// serial. The single-scan, multi-pass and relational engines are
	// serial whatever the count. Under EngineAuto, Parallelism > 1
	// upgrades a sort/scan decision to the sharded engine whenever the
	// workflow shards safely (every measure either nests inside shard
	// units or merges commutatively). Streaming sessions ignore it.
	Parallelism int
	// Recorder, if non-nil, collects the query's span tree (rooted at a
	// "query" span) and engine metrics. A nil recorder is a no-op; the
	// engines then keep private recorders so their Stats stay complete.
	Recorder *Recorder
	// Timeout, if positive, bounds the query's wall-clock time; when it
	// lapses the run aborts with ErrDeadlineExceeded. It composes with
	// any deadline already on the context passed to Run or RunStream.
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
	// whose input fits one sort chunk writes no file and charges nothing;
	// streaming sessions never spill.
	MaxSpillBytes int64
	// SkipCorruptRows degrades checksummed file reads: rows whose CRC
	// does not verify are skipped and counted (rows_corrupt_skipped)
	// instead of failing the query. File inputs only.
	SkipCorruptRows bool
	// History, if non-nil, records every run's completion (success,
	// budget trip, cancel, or error) in the persistent query-history
	// log, and lets the planner reuse measured per-node cell counts
	// from earlier completed runs on the same collection (EXPLAIN then
	// labels those estimates "measured"). Open one with OpenHistory and
	// share it across queries.
	History *History
	// RequestID names the client request this run serves, making
	// retries idempotent in the history: a retried request reuses its
	// ID, and a later record with the same ID supersedes the earlier
	// attempt's, so one request logs one final outcome no matter how
	// many attempts it took. Empty means every run logs independently.
	RequestID string
	// TraceID keys this run's entry in the query flight recorder. Empty
	// means the run generates its own ID (NewTraceID). Callers that must
	// know the ID up front — the serve layer echoing it to clients, or a
	// CLI printing the trace — generate one and pass it here; a retried
	// request reuses its ID so all attempts land in one trace.
	TraceID string
	// ReadBatchSize is the chunk size in bytes for the batched fact
	// reads under every file-backed engine (the internal/exec/scan
	// reader). 0 uses the default (a few MB); positive values below the
	// reader's minimum are clamped up; negative values are rejected at
	// entry. In-memory and streaming inputs batch at a fixed record
	// count and ignore it.
	ReadBatchSize int
}

// normalize validates and canonicalizes the execution knobs once, at
// every entry point (Run, RunStream, serve) — so engines can trust the
// values they receive. It returns the normalized copy.
func (o ExecOptions) normalize() (ExecOptions, error) {
	if o.ReadBatchSize < 0 {
		return o, fmt.Errorf("aw: negative ReadBatchSize %d", o.ReadBatchSize)
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("aw: negative Parallelism %d", o.Parallelism)
	}
	if o.MemoryBudget < 0 || o.MaxLiveCells < 0 || o.MaxResultRows < 0 || o.MaxSpillBytes < 0 {
		return o, fmt.Errorf("aw: negative resource budget")
	}
	if o.ReadBatchSize > 0 && o.ReadBatchSize < scan.MinBatchBytes {
		o.ReadBatchSize = scan.MinBatchBytes
	}
	return o, nil
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
// execution knobs shared with streaming live in the embedded
// ExecOptions; construct as
//
//	aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: aw.EngineAuto, Parallelism: 4}}
type QueryOptions struct {
	ExecOptions
	// SortKey overrides the optimizer's choice (sortscan/shardscan).
	SortKey SortKey
	// TempDir receives sort runs, single-scan spills and the relational
	// baseline's spooled intermediates.
	TempDir string
	// BaseCards estimates per-dimension base cardinalities for the
	// optimizer; nil uses defaults.
	BaseCards []float64
	// AutoStats collects per-dimension cardinality estimates from the
	// fact file (one extra sampling scan) before planning, instead of
	// relying on BaseCards or defaults. File inputs only.
	AutoStats bool
}

// Input is a fact-table source for Query.
type Input struct {
	path string
	recs []Record
	n    int
}

// FromFile reads the fact table from a binary record file.
func FromFile(path string) Input { return Input{path: path} }

// FromRecords evaluates over an in-memory record slice.
func FromRecords(recs []Record) Input { return Input{recs: recs, n: len(recs)} }

// Results maps measure names to their computed tables.
type Results map[string]*Table

// ResultsEqual reports whether two result sets answer the same query
// identically: the same measure names, each table equal within eps.
// With eps 0 this is the bit-identity discipline the serve cache and
// scan-sharing differential tests pin cached/shared answers against.
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
// a measured-statistics lookup keyed by this collection's fingerprint
// and each node's content signature ("measured"). The lookup runs only
// at plan time, never on the scan path.
func planStats(c *Compiled, in Input, o *QueryOptions) *plan.Stats {
	st := &plan.Stats{BaseCard: o.BaseCards}
	if len(o.BaseCards) > 0 {
		st.Source = plan.SourceCollected
	}
	if h := o.History; h != nil {
		fp := collectionFingerprint(in)
		st.Measured = func(sig string) (float64, bool) {
			m, ok := h.store.Lookup(fp, sig)
			return m.Cells, ok
		}
	}
	return st
}

// runEngines dispatches one evaluation attempt to the selected engine
// under the given guard and query span, returning the engine that
// actually ran (the EngineAuto decision resolved).
func runEngines(c *Compiled, in Input, o QueryOptions, st *plan.Stats, g *qguard.Guard, inq *obs.InflightQuery, qSpan *obs.Span) (Results, Engine, error) {
	qrec := o.Recorder.At(qSpan)

	// setKey records the resolved sort order on the query span, where
	// ExplainAnalyze, in-flight snapshots, and history records read it.
	setKey := func(key model.SortKey) {
		qSpan.SetAttr("sort_key", key.String(c.Schema))
	}

	// chooseKey runs the optimizer under an "optimize" span.
	chooseKey := func() (SortKey, error) {
		optSpan := qrec.Start(obs.SpanOptimize)
		defer optSpan.End()
		ch, err := opt.Best(c, st, qrec.At(optSpan))
		if err != nil {
			return nil, err
		}
		return ch.Key, nil
	}

	if o.Engine == EngineAuto {
		optSpan := qrec.Start(obs.SpanOptimize)
		d, err := opt.Choose(c, st, float64(o.MemoryBudget), qrec.At(optSpan))
		optSpan.End()
		if err != nil {
			return nil, o.Engine, err
		}
		switch d.Strategy {
		case opt.StrategySingleScan:
			o.Engine = EngineSingleScan
		case opt.StrategySortScan:
			o.Engine = EngineSortScan
			if o.SortKey == nil {
				o.SortKey = d.Key
			}
			// With parallelism requested, upgrade to the sharded engine
			// when the workflow splits safely by the sort key's leading
			// part; otherwise stay serial rather than fail.
			if o.Parallelism > 1 && in.path != "" {
				if nk, err := SortKey(o.SortKey).Normalize(c.Schema); err == nil {
					if _, err := opt.ShardPrefix(c, nk); err == nil {
						o.Engine = EngineShardScan
					}
				}
			}
		default:
			o.Engine = EngineMultiPass
		}
	}

	qSpan.SetAttr("engine", o.Engine.String())
	inq.SetEngine(o.Engine.String())

	// In-memory input paths.
	if in.path == "" {
		switch o.Engine {
		case EngineSingleScan:
			res, err := singlescan.Run(c, &storage.SliceSource{Recs: in.recs}, singlescan.Options{
				MemoryBudget: o.MemoryBudget, TempDir: o.TempDir, Recorder: qrec, Guard: g,
			})
			if err != nil {
				return nil, o.Engine, err
			}
			return res.Tables, o.Engine, nil
		case EngineSortScan:
			key := o.SortKey
			if key == nil {
				var err error
				if key, err = chooseKey(); err != nil {
					return nil, o.Engine, err
				}
			}
			nk, err := SortKey(key).Normalize(c.Schema)
			if err != nil {
				return nil, o.Engine, err
			}
			setKey(nk)
			sorted := make([]Record, len(in.recs))
			copy(sorted, in.recs)
			sortSpan := qrec.Start(obs.SpanSort)
			var sortErr error
			func() {
				defer qguard.RecoverAbort(&sortErr)
				var n int
				storage.SortRecords(sorted, func(a, b *Record) bool {
					if n++; n&4095 == 0 {
						g.CheckAbort()
					}
					return nk.RecordLess(c.Schema, a, b)
				})
			}()
			sortSpan.End()
			if sortErr != nil {
				return nil, o.Engine, sortErr
			}
			pl, err := plan.Build(c, nk, st)
			if err != nil {
				return nil, o.Engine, err
			}
			res, err := sortscan.RunSortedGuarded(c, pl, &storage.SliceSource{Recs: sorted}, g, qrec)
			if err != nil {
				return nil, o.Engine, err
			}
			return res.Tables, o.Engine, nil
		default:
			return nil, o.Engine, fmt.Errorf("aw: engine %v requires a file input (use FromFile)", o.Engine)
		}
	}

	par := o.Parallelism
	switch o.Engine {
	case EngineSortScan:
		key := o.SortKey
		if key == nil {
			var err error
			if key, err = chooseKey(); err != nil {
				return nil, o.Engine, err
			}
		}
		if nk, err := SortKey(key).Normalize(c.Schema); err == nil {
			setKey(nk)
		}
		res, err := sortscan.Run(c, in.path, sortscan.Options{
			SortKey: key, TempDir: o.TempDir, Stats: st,
			SortWorkers: par, ReadBatchBytes: o.ReadBatchSize,
			Recorder: qrec, Guard: g,
		})
		if err != nil {
			return nil, o.Engine, err
		}
		return res.Tables, o.Engine, nil
	case EngineShardScan:
		key := o.SortKey
		if key == nil {
			var err error
			if key, err = chooseKey(); err != nil {
				return nil, o.Engine, err
			}
		}
		shards := par
		if shards < 1 {
			shards = 1
		}
		if nk, err := SortKey(key).Normalize(c.Schema); err == nil {
			setKey(nk)
		}
		res, err := sortscan.RunSharded(c, in.path, sortscan.ShardedOptions{
			SortKey: key, Shards: shards, TempDir: o.TempDir, Stats: st,
			ReadBatchBytes: o.ReadBatchSize,
			Recorder:       qrec, Guard: g,
		})
		if err != nil {
			return nil, o.Engine, err
		}
		return res.Tables, o.Engine, nil
	case EngineSingleScan:
		res, err := singlescan.RunFile(c, in.path, singlescan.Options{
			MemoryBudget: o.MemoryBudget, TempDir: o.TempDir,
			ReadBatchBytes: o.ReadBatchSize, Recorder: qrec, Guard: g,
		})
		if err != nil {
			return nil, o.Engine, err
		}
		return res.Tables, o.Engine, nil
	case EngineMultiPass:
		res, err := multipass.Run(c, in.path, multipass.Options{
			MemoryBudget: float64(o.MemoryBudget), Stats: st, TempDir: o.TempDir,
			ReadBatchBytes: o.ReadBatchSize,
			Recorder:       qrec, Guard: g,
		})
		if err != nil {
			return nil, o.Engine, err
		}
		return res.Tables, o.Engine, nil
	case EngineRelational:
		res, err := relbaseline.Run(c, in.path, relbaseline.Options{TempDir: o.TempDir, Recorder: qrec, Guard: g})
		if err != nil {
			return nil, o.Engine, err
		}
		return res.Tables, o.Engine, nil
	}
	return nil, o.Engine, fmt.Errorf("aw: unknown engine %v", o.Engine)
}

// CollectStats samples a fact file (up to sampleLimit records; 0 =
// all) and returns per-dimension distinct-value estimates suitable for
// QueryOptions.BaseCards.
func CollectStats(path string, sampleLimit int64) ([]float64, error) {
	st, err := stats.CollectFile(path, stats.Options{SampleLimit: sampleLimit})
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

// LoadResult reads back one saved measure by name.
func LoadResult(dir string, schema *Schema, name string) (*Table, error) {
	return resultstore.LoadMeasure(dir, schema, name)
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

// ExplainPlan renders the streaming plan a sort key induces: per-node
// stream orders, comparable keys, watermark shifts, and footprint
// estimates.
func ExplainPlan(c *Compiled, key SortKey, baseCards []float64) (string, error) {
	p, err := plan.Build(c, key, &plan.Stats{BaseCard: baseCards})
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// DOT renders a compiled workflow as a Graphviz diagram in the style
// of the paper's aggregation-workflow figures.
func DOT(c *Compiled) string { return c.DOT() }
