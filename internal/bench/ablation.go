package bench

import (
	"fmt"
	"time"

	"awra/internal/exec/partscan"
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
	choices, err := opt.BruteForce(w, st, 0, cfg.Recorder)
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
		rec, done := cfg.beginQuery("abl-key:"+pick.label, "sortscan")
		res, err := sortscan.Run(w, fact, sortscan.Options{
			SortKey: pick.ch.Key, TempDir: cfg.Dir, Stats: st, Recorder: rec,
		})
		done()
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

// AblPar compares single-process sort/scan against the
// partitioned-parallel engine on a partitionable workload (multi-recon
// on network data, which keys every measure on t:Day), quantifying the
// distribution headroom the paper claims for the language design.
func AblPar(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "abl-par",
		Title:  "ablation: partitioned-parallel sort/scan (ms)",
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
		rec, done := cfg.beginQuery(fmt.Sprintf("abl-par:parts=%d", parts), "partscan")
		res, err := partscan.Run(w, fact, partscan.Options{
			PartitionDim: 0, PartitionLevel: day, Partitions: parts,
			SortKey: key, TempDir: cfg.Dir,
			Stats:    &plan.Stats{BaseCard: cards},
			Recorder: rec,
		})
		done()
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

// ParShard compares serial sort/scan against the sharded-parallel
// engine on Q1 at the paper's 1M-record point, verifying bit-identical
// tables at every shard count. The key leads with A1 at level 2, so
// Q1's level-2 rollups and combine nest inside the shard units; this
// is the first point of the parallel-speedup trajectory.
func ParShard(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "par-shard",
		Title:  "sharded parallel sort/scan vs serial on Q1 (ms)",
		Header: []string{"shards", "time_ms", "speedup", "records"},
	}
	n := cfg.size(160) // the paper's 1M-record point at scale 1
	fact, sc, err := cfg.synthFile(n)
	if err != nil {
		return nil, err
	}
	w, err := Q1Workflow(mustSynthSchema(sc), 7)
	if err != nil {
		return nil, err
	}
	key := model.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 0}}
	st := &plan.Stats{BaseCard: SynthStats(sc)}

	t0 := time.Now()
	rec, done := cfg.beginQuery("par-shard:serial", "sortscan")
	base, err := sortscan.Run(w, fact, sortscan.Options{
		SortKey: key, TempDir: cfg.Dir, Stats: st, Recorder: rec,
	})
	done()
	if err != nil {
		return nil, err
	}
	dSerial := time.Since(t0)
	cfg.logf("par-shard serial: %v", dSerial)
	f.Rows = append(f.Rows, []string{"serial", ms(dSerial), "1.00", fmt.Sprint(base.Stats.Records)})

	counts := []int{2, 4}
	if p := cfg.Parallelism; p > 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	for _, shards := range counts {
		t0 := time.Now()
		rec, done := cfg.beginQuery(fmt.Sprintf("par-shard:shards=%d", shards), "shardscan")
		res, err := sortscan.RunSharded(w, fact, sortscan.ShardedOptions{
			SortKey: key, Shards: shards, TempDir: cfg.Dir, Stats: st, Recorder: rec,
		})
		done()
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		for name, tbl := range base.Tables {
			if !tbl.Equal(res.Tables[name], 0) {
				return nil, fmt.Errorf("bench: par-shard: shards=%d table %q differs from serial", shards, name)
			}
		}
		cfg.logf("par-shard shards=%d: %v", shards, d)
		f.Rows = append(f.Rows, []string{
			fmt.Sprint(shards), ms(d),
			fmt.Sprintf("%.2f", float64(dSerial)/float64(d)),
			fmt.Sprint(res.Stats.Records),
		})
	}
	f.Notes = append(f.Notes,
		"tables verified bit-identical to serial at every shard count",
		fmt.Sprintf("|D| = %d records, sort key %s", n, key.String(w.Schema)),
		"wall-clock speedup requires as many physical cores as shards (see host.gomaxprocs)")
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
	best, err := opt.Best(w, st, cfg.Recorder)
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
		rec, done := cfg.beginQuery("abl-flush:"+mode.label, "sortscan")
		res, err := sortscan.Run(w, fact, sortscan.Options{
			SortKey: best.Key, TempDir: cfg.Dir, Stats: st,
			DisableEarlyFlush: mode.disable,
			Recorder:          rec,
		})
		done()
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
