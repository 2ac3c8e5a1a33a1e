// Command awgen generates the evaluation datasets: the synthetic
// multidimensional workload of the paper's Section 7.1 and the
// network attack log that substitutes for the DShield / LBL HoneyNet
// data of Section 7.2.
//
// Usage:
//
//	awgen -kind synth -n 1000000 -out synth.rec [-dims 4] [-depth 3] [-fanout 10] [-seed 1]
//	awgen -kind net   -n 1000000 -out net.rec   [-days 7] [-subnets 256] [-sources 4096] [-seed 1]
//	awgen ... -csv out.csv   # additionally export as CSV
package main

import (
	"flag"
	"fmt"
	"os"

	"awra/internal/exec/scan"
	"awra/internal/gen"
	"awra/internal/storage"
)

func main() {
	var (
		kind    = flag.String("kind", "synth", "dataset kind: synth or net")
		n       = flag.Int64("n", 100000, "approximate number of records")
		out     = flag.String("out", "", "output record file (required)")
		csvOut  = flag.String("csv", "", "also export the dataset as CSV to this path")
		seed    = flag.Int64("seed", 1, "random seed")
		dims    = flag.Int("dims", 4, "synth: number of dimensions")
		depth   = flag.Int("depth", 3, "synth: concrete domains per hierarchy")
		fanout  = flag.Int("fanout", 10, "synth: per-level fanout")
		days    = flag.Int("days", 7, "net: days of traffic")
		subnets = flag.Int("subnets", 256, "net: distinct target /24 subnets")
		sources = flag.Int("sources", 4096, "net: distinct source IPs")
		escal   = flag.Int("escalations", 4, "net: planted escalation events")
		recons  = flag.Int("recons", 4, "net: planted recon sweeps")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "awgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	var cols []string
	switch *kind {
	case "synth":
		cfg := gen.SynthConfig{Dims: *dims, Depth: *depth, Fanout: *fanout, Seed: *seed}
		s, err := gen.Synth(*out, *n, cfg)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < s.NumDims(); i++ {
			cols = append(cols, s.Dim(i).Name())
		}
		for i := 0; i < s.NumMeasures(); i++ {
			cols = append(cols, s.MeasureName(i))
		}
		fmt.Printf("wrote %s: %d-dimensional synthetic dataset\n", *out, s.NumDims())
	case "net":
		cfg := gen.NetConfig{
			Days: *days, Subnets: *subnets, Sources: *sources,
			Escalations: *escal, Recons: *recons, Seed: *seed,
		}
		s, truth, err := gen.NetLog(*out, *n, cfg)
		if err != nil {
			fatal(err)
		}
		cols = []string{"t", "U", "T", "P"}
		fmt.Printf("wrote %s: network log with %d planted escalations, %d recon sweeps\n",
			*out, len(truth.Escalations), len(truth.Recons))
		for _, e := range truth.Escalations {
			hourLvl, _ := s.Dim(0).LevelByName("Hour")
			sub, _ := s.Dim(2).LevelByName("/24")
			fmt.Printf("  escalation: target %s peak %s\n",
				s.Dim(2).FormatCode(sub, e.TargetSubnet), s.Dim(0).FormatCode(hourLvl, e.HourCode))
		}
		for _, r := range truth.Recons {
			dayLvl, _ := s.Dim(0).LevelByName("Day")
			sub, _ := s.Dim(2).LevelByName("/24")
			fmt.Printf("  recon: target %s on %s (%d sources)\n",
				s.Dim(2).FormatCode(sub, r.TargetSubnet), s.Dim(0).FormatCode(dayLvl, r.DayCode), r.Sources)
		}
	default:
		fatal(fmt.Errorf("unknown -kind %q (synth, net)", *kind))
	}

	r, err := scan.FileInput(*out).Open(scan.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("records: %d\n", r.Header().Count)
	r.Close()

	if *csvOut != "" {
		if err := storage.ExportCSV(*out, *csvOut, cols); err != nil {
			fatal(err)
		}
		fmt.Printf("exported CSV to %s\n", *csvOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "awgen:", err)
	os.Exit(1)
}
