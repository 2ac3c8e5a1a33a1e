// Command awquery evaluates an aggregation workflow — written in the
// small text DSL of internal/wfdsl — over a binary record file, using
// any of the library's engines.
//
// Usage:
//
//	awquery -wf query.aw -data net.rec [-engine sortscan] [-measure NAME] [-limit 20]
//	awquery -wf query.aw -explain          # show the streaming plan and DOT graph
//	awquery -wf query.aw -data net.rec -history-dir ./hist   # log the run; later plans reuse its measured stats
//	awquery -history-dir ./hist -history 20                  # list recent runs (outcome, duration, records)
//
// Example workflow file:
//
//	schema net
//	basic   Count   gran(t=Hour, U=IP) agg=count
//	rollup  sCount  gran(t=Hour) src=Count agg=count where "m0 > 5"
//	sliding avg6    src=sCount agg=avg window t 0..5
//	combine ratio   src=avg6,sCount fc=ratio
//
// Exit codes distinguish operational outcomes for scripting:
//
//	0  success
//	1  genuine failure (bad input, I/O error, corrupt data, ...)
//	2  usage error
//	3  canceled or timed out (-timeout, SIGINT)
//	4  a resource guardrail tripped (-max-result-rows, -max-live-cells,
//	   -max-spill-bytes)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"awra/aw"
	"awra/internal/wfdsl"
)

func main() {
	var (
		wfPath  = flag.String("wf", "", "workflow file (required)")
		data    = flag.String("data", "", "binary record file to query")
		engine  = flag.String("engine", "sortscan", "engine: auto, sortscan, shardscan, singlescan, multipass, relational")
		measure = flag.String("measure", "", "print only this measure (default: all)")
		limit   = flag.Int("limit", 20, "max rows to print per measure (0 = all)")
		budget  = flag.Int64("budget", 0, "memory budget in bytes (singlescan spill / multipass per-pass / auto decision)")
		par     = flag.Int("parallelism", 1, "shard count of shardscan (and of auto, when the workflow shards)")
		csvOut  = flag.String("o", "", "write the selected measure(s) as CSV file(s): PATH, or PATH prefix when printing several")
		explain = flag.Bool("explain", false, "print the plan tree with optimizer estimates (and the workflow DOT graph), then exit")
		analyze = flag.Bool("explain-analyze", false, "run the query, then print the plan tree with per-node actuals vs estimates instead of result rows")
		jsonOut = flag.Bool("json", false, "with -explain/-explain-analyze: emit the profile as JSON")
		dot     = flag.Bool("dot", false, "print only the Graphviz workflow diagram, then exit")
		stats   = flag.Bool("stats", false, "sample the data file and print per-dimension statistics, then exit")
		auto    = flag.Bool("autostats", false, "feed sampled statistics to the sort-order optimizer")
		save    = flag.String("save", "", "persist all computed measures into this directory (resultstore)")
		load    = flag.String("load", "", "print measures previously saved into this directory instead of recomputing")
		trace   = flag.Bool("trace", false, "print the query's span tree (per-phase times and percentages) to stderr")
		traceID = flag.String("trace-id", "", "flight-recorder trace ID for this run (32 hex digits; default: generated). The ID is printed to stderr so the run's flight trace can be referenced")
		traceJS = flag.String("trace-json", "", "write the run's full flight-recorder trace as JSON to FILE (\"-\" = stdout)")
		metrics = flag.String("metrics", "", "write the query's metrics snapshot as JSON to FILE (\"-\" = stdout)")
		timeout = flag.Duration("timeout", 0, "abort the query after this duration (exit code 3)")
		maxRows = flag.Int64("max-result-rows", 0, "fail once the result exceeds this many rows (exit code 4; 0 = unlimited)")
		maxCell = flag.Int64("max-live-cells", 0, "cap simultaneously live aggregation cells (exit code 4; 0 = unlimited)")
		maxSpil = flag.Int64("max-spill-bytes", 0, "cap bytes spilled to disk by sorts (exit code 4; 0 = unlimited)")
		skipBad = flag.Bool("skip-corrupt", false, "skip and count checksum-failing rows instead of failing")
		histDir = flag.String("history-dir", "", "persistent query-history directory: every run is logged there, and plans reuse measured statistics from earlier runs on the same data")
		histN   = flag.Int("history", 0, "print the N most recent runs from -history-dir, then exit")
	)
	flag.Parse()

	// -history lists past runs and needs no workflow.
	if *histN > 0 {
		if *histDir == "" {
			fmt.Fprintln(os.Stderr, "awquery: -history requires -history-dir")
			os.Exit(2)
		}
		h, err := aw.OpenHistory(*histDir)
		if err != nil {
			fatal(err)
		}
		defer h.Close()
		if *jsonOut {
			writeJSON(os.Stdout, h.Summary(*histN))
		} else {
			fmt.Printf("%d runs, %d measured statistics in %s\n", h.Len(), h.MeasuredStats(), h.Dir())
			fmt.Print(h.FormatRecent(*histN))
		}
		return
	}

	if *wfPath == "" {
		fmt.Fprintln(os.Stderr, "awquery: -wf is required")
		flag.Usage()
		os.Exit(2)
	}

	var hist *aw.History
	if *histDir != "" {
		h, err := aw.OpenHistory(*histDir)
		if err != nil {
			fatal(err)
		}
		defer h.Close()
		hist = h
	}
	text, err := os.ReadFile(*wfPath)
	if err != nil {
		fatal(err)
	}
	parsed, err := wfdsl.Parse(string(text))
	if err != nil {
		fatal(err)
	}
	c := parsed.Compiled

	if *dot {
		fmt.Print(aw.DOT(c))
		return
	}
	if *explain {
		eng, err := aw.ParseEngine(*engine)
		if err != nil {
			fatal(err)
		}
		qo := aw.QueryOptions{ExecOptions: aw.ExecOptions{
			Engine: eng, MemoryBudget: *budget, Parallelism: *par, History: hist,
		}}
		// With the collection known, measured statistics from the
		// history apply, exactly as a run would plan.
		var prof *aw.Profile
		if *data != "" {
			prof, err = aw.ExplainFor(c, aw.FromFile(*data), qo)
		} else {
			prof, err = aw.Explain(c, qo)
		}
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			writeJSON(os.Stdout, prof)
			return
		}
		fmt.Print(prof.String())
		fmt.Println()
		fmt.Println(aw.DOT(c))
		return
	}
	if *data == "" && *load == "" {
		// With no data, describe the workflow instead of failing.
		fmt.Print(c.Describe())
		fmt.Fprintln(os.Stderr, "\nawquery: pass -data FILE to evaluate (or -explain for the plan)")
		os.Exit(2)
	}

	if *stats {
		cards, err := aw.CollectStats(*data, 0)
		if err != nil {
			fatal(err)
		}
		for d, card := range cards {
			fmt.Printf("%-12s ~%.0f distinct base values\n", parsed.Schema.Dim(d).Name(), card)
		}
		return
	}

	eng, err := aw.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	var rec *aw.Recorder
	if *trace || *metrics != "" {
		rec = aw.NewRecorder()
	}
	var res aw.Results
	var prof *aw.Profile
	if *load != "" {
		if *analyze {
			fatal(fmt.Errorf("-explain-analyze requires running a query (incompatible with -load)"))
		}
		res, err = aw.LoadResults(*load, parsed.Schema)
		if err != nil {
			fatal(err)
		}
	} else {
		// SIGINT cancels the query cooperatively; the engines abort at
		// their next scan stride and clean up temp files.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		// The trace ID is fixed before the run so the flight-recorder
		// entry can be referenced whatever the outcome.
		tid := *traceID
		if tid == "" {
			tid = aw.NewTraceID()
		}
		qo := aw.QueryOptions{
			ExecOptions: aw.ExecOptions{
				Engine:          eng,
				MemoryBudget:    *budget,
				Parallelism:     *par,
				Recorder:        rec,
				Timeout:         *timeout,
				MaxResultRows:   *maxRows,
				MaxLiveCells:    *maxCell,
				MaxSpillBytes:   *maxSpil,
				SkipCorruptRows: *skipBad,
				History:         hist,
				TraceID:         tid,
			},
			AutoStats: *auto,
		}
		if *analyze {
			var r *aw.Result
			r, err = aw.ExplainAnalyzeCompiled(ctx, c, aw.FromFile(*data), qo)
			if err == nil {
				res, prof = r.Tables, r.Profile
			}
		} else {
			res, err = aw.RunCompiled(ctx, c, aw.FromFile(*data), qo)
		}
		stop()
		// The flight trace exists for failed runs too — that is the
		// point of a flight recorder — so emit it before exiting.
		if *traceID != "" || *traceJS != "" {
			fmt.Fprintln(os.Stderr, "trace_id:", tid)
		}
		writeFlightTrace(*traceJS, tid)
		if err != nil {
			fatal(err)
		}
	}
	if *trace {
		fmt.Fprint(os.Stderr, rec.FormatTree())
	}
	if *metrics != "" {
		snap := rec.Snapshot()
		if *metrics == "-" {
			if err := snap.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			f, err := os.Create(*metrics)
			if err != nil {
				fatal(err)
			}
			if err := snap.WriteJSON(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if *save != "" {
		if err := aw.SaveResults(*save, parsed.Schema, res); err != nil {
			fatal(err)
		}
		fmt.Printf("saved %d measures to %s\n", len(res), *save)
	}

	if prof != nil {
		if *jsonOut {
			writeJSON(os.Stdout, prof)
		} else {
			fmt.Print(prof.String())
		}
		if *csvOut == "" {
			return
		}
	}

	names := c.Outputs()
	if *measure != "" {
		if _, err := c.MeasureByName(*measure); err != nil {
			fatal(err)
		}
		names = []string{*measure}
	}
	for _, name := range names {
		tbl := res[name]
		if tbl == nil {
			fmt.Printf("== %s (not present in the loaded results)\n", name)
			continue
		}
		if *csvOut != "" {
			path := *csvOut
			if len(names) > 1 {
				path = *csvOut + name + ".csv"
			}
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := tbl.WriteCSV(f, name); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%d regions)\n", path, len(tbl.Rows))
			continue
		}
		fmt.Printf("== %s (%d regions)\n", name, len(tbl.Rows))
		keys := tbl.SortedKeys()
		shown := 0
		for _, k := range keys {
			if *limit > 0 && shown >= *limit {
				fmt.Printf("   ... %d more\n", len(keys)-shown)
				break
			}
			fmt.Printf("   %-50s %v\n", tbl.Codec.Format(k), tbl.Rows[k])
			shown++
		}
	}
}

// writeFlightTrace writes the run's flight-recorder trace to dst
// ("" = skip, "-" = stdout). A run sampled out of the flight ring
// (healthy and fast) may legitimately not be retained.
func writeFlightTrace(dst, tid string) {
	if dst == "" {
		return
	}
	out := os.Stdout
	if dst != "-" {
		f, err := os.Create(dst)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		out = f
	}
	t, found := aw.LookupTrace(tid)
	if found {
		writeJSON(out, t)
	} else {
		fmt.Fprintf(os.Stderr, "awquery: trace %s not retained (healthy fast runs are sampled)\n", tid)
	}
}

// writeJSON emits a profile, history summary or flight trace as
// indented JSON.
func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// fatal reports the error and exits with a code that tells scripts
// whether the query was canceled (3), rejected by a guardrail (4), or
// genuinely failed (1).
func fatal(err error) {
	code := 1
	switch {
	case errors.Is(err, aw.ErrCanceled), errors.Is(err, aw.ErrDeadlineExceeded):
		code = 3
	case errors.Is(err, aw.ErrBudgetExceeded):
		code = 4
	}
	fmt.Fprintln(os.Stderr, "awquery:", err)
	os.Exit(code)
}
