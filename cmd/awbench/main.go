// Command awbench regenerates the figures of the paper's evaluation
// section (Section 7) at laptop scale: Figures 6(a)-6(f) on the
// synthetic workload and 7(a)-7(b) on the network attack log.
//
// Usage:
//
//	awbench -dir ./data                     # all figures; datasets go in ./data
//	awbench -dir ./data -fig fig6a          # one figure
//	awbench -dir ./data -scale 4            # larger datasets
//	awbench -list                           # available figures
//	awbench -dir ./data -q -json            # all, as one JSON array (make figures)
//
// The -scale flag multiplies dataset sizes (1.0 corresponds to
// 12.5k-400k records; the paper ran 2M-64M on 2006 hardware). Shapes,
// not absolute milliseconds, are the reproduction target: each figure
// is a single run, and speed claims come from perf/. Live /metrics and
// /debug/aw/* endpoints are awserved's; see EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"awra/internal/bench"
)

func main() {
	var (
		dir     = flag.String("dir", "", "working directory for datasets and temporaries (required)")
		fig     = flag.String("fig", "all", "figure id to regenerate, or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier")
		seed    = flag.Int64("seed", 2006, "dataset generation seed")
		budget  = flag.Int64("budget", 8<<20, "single-scan memory budget in bytes")
		list    = flag.Bool("list", false, "list available figures and exit")
		quiet   = flag.Bool("q", false, "suppress progress output")
		jsonOut = flag.Bool("json", false, "print figures as JSON (rows, host and metrics snapshot) instead of text tables; -fig all prints one array")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to FILE")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to FILE")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.IDs(), "\n"))
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "awbench: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	cfg := bench.Config{
		Dir:              *dir,
		Scale:            *scale,
		Seed:             *seed,
		SingleScanBudget: *budget,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	writeMemProfile := func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
	}

	var (
		figs []*bench.Figure
		err  error
	)
	if *fig == "all" {
		figs, err = bench.All(cfg)
	} else {
		var f *bench.Figure
		if f, err = bench.Run(*fig, cfg); err == nil {
			figs = append(figs, f)
		}
	}
	switch {
	case *jsonOut && *fig == "all":
		writeJSON(figs) // one array: the committed benchdata/figures.json
	case *jsonOut:
		for _, f := range figs {
			writeJSON(f)
		}
	default:
		for _, f := range figs {
			f.Fprint(os.Stdout)
		}
	}
	writeMemProfile()
	if err != nil {
		fatal(err)
	}
}

// writeJSON prints v as indented JSON on stdout.
func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "awbench:", err)
	os.Exit(1)
}
