package bench

import (
	"fmt"
	"time"

	"awra/internal/exec/sortscan"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/opt"
	"awra/internal/plan"
)

// AblKey compares the optimizer's best sort key against the worst
// candidate on Q1: same engine, same data, different order — isolating
// the value of the Section 6 sort-order optimization. The columns
// report wall-clock and the actual peak number of live hash entries.
func AblKey(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "abl-key",
		Title:  "ablation: optimizer-chosen vs worst sort key on Q1 (ms / live cells)",
		Header: []string{"key", "time_ms", "peakCells", "estBytes"},
	}
	n := cfg.size(16)
	fact, sc, err := cfg.synthFile(n)
	if err != nil {
		return nil, err
	}
	w, err := Q1Workflow(mustSynthSchema(sc), 7)
	if err != nil {
		return nil, err
	}
	st := &plan.Stats{BaseCard: SynthStats(sc)}
	choices, err := opt.BruteForce(w, st, 0, cfg.rec)
	if err != nil {
		return nil, err
	}
	for _, pick := range []struct {
		label string
		ch    opt.Choice
	}{
		{"best", choices[0]},
		{"worst", choices[len(choices)-1]},
	} {
		t0 := time.Now()
		res, err := sortscan.Run(w, fact, sortscan.Options{
			SortKey: pick.ch.Key, TempDir: cfg.Dir, Stats: st, Recorder: cfg.rec,
		})
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		cfg.logf("abl-key %s %s: %v, %d cells", pick.label, pick.ch.Key.String(w.Schema), d, res.Stats.PeakCells)
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%s %s", pick.label, pick.ch.Key.String(w.Schema)),
			ms(d), fmt.Sprint(res.Stats.PeakCells), fmt.Sprintf("%.0f", pick.ch.EstBytes),
		})
	}
	f.Notes = append(f.Notes, fmt.Sprintf("|D| = %d records; %d candidate keys scored", n, len(choices)))
	return f, nil
}

// AblPar runs the sharded sort/scan at 1, 2 and 4 workers on a workload
// that partitions by day (multi-recon on network data, which keys every
// measure on t:Day, the sort key's leading part and so the partition
// unit), quantifying the distribution headroom the paper claims for the
// language design.
func AblPar(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "abl-par",
		Title:  "ablation: sharded sort/scan partitioned by t:Day (ms)",
		Header: []string{"partitions", "time_ms", "records"},
	}
	n := cfg.size(64)
	fact, nc, err := cfg.netFile(n)
	if err != nil {
		return nil, err
	}
	s, err := gen.NetSchema()
	if err != nil {
		return nil, err
	}
	w, err := ReconWorkflow(s, 40)
	if err != nil {
		return nil, err
	}
	day, err := s.Dim(0).LevelByName("Day")
	if err != nil {
		return nil, err
	}
	cards := NetStats(nc.Days, nc.Sources, nc.Subnets)
	key := model.SortKey{{Dim: 0, Lvl: day}, {Dim: 2, Lvl: 0}, {Dim: 1, Lvl: 0}}
	for _, parts := range []int{1, 2, 4} {
		t0 := time.Now()
		res, err := sortscan.RunSharded(w, fact, sortscan.ShardedOptions{
			SortKey: key, Shards: parts, TempDir: cfg.Dir,
			Stats:    &plan.Stats{BaseCard: cards},
			Recorder: cfg.rec,
		})
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		cfg.logf("abl-par parts=%d: %v", parts, d)
		f.Rows = append(f.Rows, []string{fmt.Sprint(parts), ms(d), fmt.Sprint(res.Stats.Records)})
	}
	f.Notes = append(f.Notes, "multi-recon workload partitioned by t:Day; results validated identical across partition counts in tests")
	return f, nil
}

// AblFlush compares the sort/scan engine with and without early
// flushing (the watermark machinery of Tables 6-8). Both produce
// identical results; the difference is the live-cell footprint — the
// entire point of the paper's streaming evaluation.
func AblFlush(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "abl-flush",
		Title:  "ablation: early flushing on/off (live hash entries)",
		Header: []string{"mode", "time_ms", "peakCells"},
	}
	n := cfg.size(16)
	fact, sc, err := cfg.synthFile(n)
	if err != nil {
		return nil, err
	}
	w, err := Q1Workflow(mustSynthSchema(sc), 7)
	if err != nil {
		return nil, err
	}
	st := &plan.Stats{BaseCard: SynthStats(sc)}
	best, err := opt.Best(w, st, cfg.rec)
	if err != nil {
		return nil, err
	}
	for _, mode := range []struct {
		label   string
		disable bool
	}{
		{"early-flush", false},
		{"no-flush", true},
	} {
		t0 := time.Now()
		res, err := sortscan.Run(w, fact, sortscan.Options{
			SortKey: best.Key, TempDir: cfg.Dir, Stats: st,
			DisableEarlyFlush: mode.disable,
			Recorder:          cfg.rec,
		})
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		cfg.logf("abl-flush %s: %v, %d cells", mode.label, d, res.Stats.PeakCells)
		f.Rows = append(f.Rows, []string{mode.label, ms(d), fmt.Sprint(res.Stats.PeakCells)})
	}
	f.Notes = append(f.Notes, fmt.Sprintf("|D| = %d records, sort key %s", n, best.Key.String(w.Schema)))
	return f, nil
}
