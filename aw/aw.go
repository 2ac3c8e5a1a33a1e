// Package aw is the public API of the composite-subset-measures
// library, a Go implementation of the system described in "Composite
// Subset Measures" (Chen et al., VLDB 2006).
//
// The library computes measures — numeric summaries — for collections
// of regions of a multidimensional dataset, where a measure may be
// composed from the measures of related regions (ancestors,
// descendants, and moving-window neighbors in cube space), not just
// from raw records. Queries are declared as aggregation workflows and
// evaluated by streaming engines built on sorting and scanning flat
// files; no database is required.
//
// Typical use:
//
//	schema := aw.MustSchema([]*aw.Dimension{
//	    aw.TimeDimension("t"),
//	    aw.IPv4Dimension("src"),
//	}, )
//	gHour, _ := schema.MakeGran(map[string]string{"t": "Hour", "src": "IP"})
//	gH, _ := schema.MakeGran(map[string]string{"t": "Hour"})
//	wf := aw.NewWorkflow(schema).
//	    Basic("traffic", gHour, aw.Count, -1).
//	    Rollup("busy", gH, "traffic", aw.Count, aw.Where(aw.MWhere(0, aw.Gt, 5)))
//	res, err := aw.Run(ctx, wf, aw.FromFile("attacks.rec"))
//
// # Entry points
//
// The canonical API is context-first: Run and RunCompiled for batch
// evaluation, RunStream and RunStreamCompiled for streaming sessions.
// The context carries cancellation. Batch execution knobs — engine,
// Parallelism, memory and guardrail budgets, recorder — live in the
// ExecOptions struct embedded in QueryOptions; StreamOptions lists
// only the few a session reads (sort key, emit callback, recorder,
// timeout, live-cell and result-row budgets), and every session checks
// that records arrive in its sort-key order.
//
// The underlying engines (one-pass sort/scan, sharded parallel
// sort/scan, single-scan, multi-pass, and a relational-style baseline)
// are selectable through ExecOptions.Engine; by default Run picks a
// sort order with the brute-force optimizer and runs the one-pass
// sort/scan algorithm, and with ExecOptions{Engine: EngineAuto,
// Parallelism: N} it shards that pass across N workers whenever the
// workflow allows.
//
// # Observability
//
// A run's numbers live in one EngineStats value, which the engine, its
// sort and its scan phase fill. The run publishes it to
// ExecOptions.Recorder once, when the engine returns; a history line
// embeds it, and ExplainAnalyzeCompiled returns it as Profile.Stats,
// its node list behind the profile's actuals.
package aw

import (
	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/storage"
)

// Re-exported model types: dimensions, hierarchies, schemas, regions.
type (
	// Dimension is a dimension attribute with its linear domain
	// generalization hierarchy.
	Dimension = model.Dimension
	// DomainSpec describes one domain in a hierarchy.
	DomainSpec = model.DomainSpec
	// Level indexes a domain within a hierarchy (0 = base).
	Level = model.Level
	// Schema is the dimension vector plus measure attributes.
	Schema = model.Schema
	// Gran is a granularity vector identifying a region set.
	Gran = model.Gran
	// Record is one fact-table row.
	Record = model.Record
	// Key is a byte-encoded region identifier.
	Key = model.Key
	// SortKey is an order vector for sort/scan passes.
	SortKey = model.SortKey
	// SortPart is one (dimension, level) component of a SortKey.
	SortPart = model.SortPart
	// Dict resolves labels and codes for dictionary hierarchies.
	Dict = model.Dict
	// DictBuilder accumulates leaf paths for a dictionary hierarchy.
	DictBuilder = model.DictBuilder
)

// LevelALL resolves to a dimension's D_ALL level.
const LevelALL = model.LevelALL

// Dimension constructors.
var (
	// NewDimension builds a dimension from domain specs.
	NewDimension = model.NewDimension
	// MustDimension is NewDimension panicking on error.
	MustDimension = model.MustDimension
	// FixedFanout builds a uniform-fanout hierarchy.
	FixedFanout = model.FixedFanout
	// TimeDimension builds Second->Hour->Day->Month->Year->ALL.
	TimeDimension = model.TimeDimension
	// IPv4Dimension builds IP->/24->/16->/8->ALL.
	IPv4Dimension = model.IPv4Dimension
	// PortDimension builds Port->Class->ALL.
	PortDimension = model.PortDimension
	// NewDictBuilder starts a dictionary hierarchy for categorical
	// dimensions (site -> region -> country and the like).
	NewDictBuilder = model.NewDictBuilder
	// NewSchema builds a schema from dimensions and measure names.
	NewSchema = model.NewSchema
	// MustSchema is NewSchema panicking on error.
	MustSchema = model.MustSchema
)

// Time/IP code helpers.
var (
	// SecondCode, HourCode, DayCode, MonthCode build time-domain codes
	// from calendar components.
	SecondCode = model.SecondCode
	HourCode   = model.HourCode
	DayCode    = model.DayCode
	MonthCode  = model.MonthCode
	// IPCode builds an IPv4 base code from dotted-quad octets.
	IPCode = model.IPCode
)

// Aggregation functions.
const (
	Count         = agg.Count
	CountNonNull  = agg.CountNonNull
	Sum           = agg.Sum
	Min           = agg.Min
	Max           = agg.Max
	Avg           = agg.Avg
	Var           = agg.Var
	StdDev        = agg.StdDev
	CountDistinct = agg.CountDistinct
	First         = agg.First
	Last          = agg.Last
	ConstZero     = agg.ConstZero
	Median        = agg.Median
	P95           = agg.P95
)

// Null and IsNull handle SQL-style NULL measure values (NaN).
var (
	Null   = agg.Null
	IsNull = agg.IsNull
)

// Workflow and algebra types.
type (
	// Workflow declares measures; Compile validates and orders them.
	Workflow = core.Workflow
	// Compiled is a validated, topologically ordered workflow.
	Compiled = core.Compiled
	// Measure is one compiled measure node.
	Measure = core.Measure
	// Window is a sibling-match moving window.
	Window = core.Window
	// Predicate is a selection condition.
	Predicate = core.Predicate
	// CombineFunc merges measures in a combine join.
	CombineFunc = core.CombineFunc
	// Table is a materialized measure table (the query result unit).
	Table = core.Table
	// Expr is an AW-RA algebra expression.
	Expr = core.Expr
	// CmpOp is a comparison operator for predicate helpers.
	CmpOp = core.CmpOp
)

// Comparison operators.
const (
	Lt = core.Lt
	Le = core.Le
	Eq = core.Eq
	Ne = core.Ne
	Ge = core.Ge
	Gt = core.Gt
)

// Workflow construction helpers.
var (
	// NewWorkflow starts a workflow over a schema.
	NewWorkflow = core.NewWorkflow
	// Where attaches a selection to a measure's inputs.
	Where = core.Where
	// WithBase names an explicit cell-providing base measure.
	WithBase = core.WithBase
	// MWhere compares a measure value; DimWhere a region code.
	MWhere   = core.MWhere
	DimWhere = core.DimWhere
	// And, Or, Not compose predicates.
	And = core.And
	Or  = core.Or
	Not = core.Not
	// Ratio, Diff, SumOf, MaxOf, Pick are common combine functions.
	Ratio = core.Ratio
	Diff  = core.Diff
	SumOf = core.SumOf
	MaxOf = core.MaxOf
	Pick  = core.Pick
	// Translate converts a compiled measure to its AW-RA expression
	// (Theorem 2); Eval evaluates an expression in memory.
	Translate = core.Translate
	Eval      = core.Eval
)

// Observability re-exports: pass a *Recorder through
// QueryOptions.Recorder to collect a span tree and the metrics each run
// publishes when it ends, then render it with FormatTree, Snapshot, or
// WritePrometheus.
type (
	// Recorder collects spans and metrics for one query (nil is a
	// valid no-op recorder).
	Recorder = obs.Recorder
	// EngineStats holds one run's numbers under the metric names.
	EngineStats = obs.EngineStats
	// Span is one timed phase of a query.
	Span = obs.Span
)

// NewRecorder creates an empty observability recorder.
var NewRecorder = obs.New

// Storage helpers.
var (
	// ImportCSV / ExportCSV convert between CSV and the binary format.
	ImportCSV = storage.ImportCSV
	ExportCSV = storage.ExportCSV
)
