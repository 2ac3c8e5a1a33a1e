package bench

import (
	"fmt"
	"time"

	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/model"
	"awra/internal/plan"
)

// HotPath measures the batched zero-copy record pipeline on the
// headline number: serial Q1 (seven child/parent measures) over the
// paper's 1M-record point. It times the three file-backed engines that
// share the internal/exec/scan reader and cellmap tables — serial
// sort/scan, single-scan, and 2-way shardscan — verifies their tables
// bit-identical pairwise, and reports throughput in rows/s so the
// trajectory in benchdata/hotpath.json is comparable across commits.
func HotPath(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "hotpath",
		Title:  "batched zero-copy pipeline: serial Q1 per engine (1M-record point at scale 1)",
		Header: []string{"engine", "time_ms", "rows_per_sec", "records"},
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

	row := func(engine string, d time.Duration, records int64) {
		rps := float64(records) / d.Seconds()
		f.Rows = append(f.Rows, []string{
			engine, ms(d), fmt.Sprintf("%.0f", rps), fmt.Sprint(records),
		})
		cfg.logf("hotpath %s: %v (%.0f rows/s)", engine, d, rps)
	}

	t0 := time.Now()
	rec, done := cfg.beginQuery("hotpath:sortscan", "sortscan")
	base, err := sortscan.Run(w, fact, sortscan.Options{
		SortKey: key, TempDir: cfg.Dir, Stats: st, Recorder: rec,
		ReadBatchBytes: cfg.ReadBatchBytes,
	})
	done()
	if err != nil {
		return nil, err
	}
	dSort := time.Since(t0)
	row("sortscan", dSort, base.Stats.Records)

	t0 = time.Now()
	rec, done = cfg.beginQuery("hotpath:singlescan", "singlescan")
	single, err := singlescan.RunFile(w, fact, singlescan.Options{
		TempDir: cfg.Dir, Recorder: rec, ReadBatchBytes: cfg.ReadBatchBytes,
	})
	done()
	if err != nil {
		return nil, err
	}
	dSingle := time.Since(t0)
	row("singlescan", dSingle, single.Stats.Records)
	for name, tbl := range base.Tables {
		if !tbl.Equal(single.Tables[name], 0) {
			return nil, fmt.Errorf("bench: hotpath: singlescan table %q differs from sortscan", name)
		}
	}

	t0 = time.Now()
	rec, done = cfg.beginQuery("hotpath:shardscan", "shardscan")
	shard, err := sortscan.RunSharded(w, fact, sortscan.ShardedOptions{
		SortKey: key, Shards: 2, TempDir: cfg.Dir, Stats: st, Recorder: rec,
		ReadBatchBytes: cfg.ReadBatchBytes,
	})
	done()
	if err != nil {
		return nil, err
	}
	dShard := time.Since(t0)
	row("shardscan-2", dShard, shard.Stats.Records)
	for name, tbl := range base.Tables {
		if !tbl.Equal(shard.Tables[name], 0) {
			return nil, fmt.Errorf("bench: hotpath: shardscan table %q differs from sortscan", name)
		}
	}

	f.Notes = append(f.Notes,
		"tables verified bit-identical across sortscan, singlescan, and shardscan",
		fmt.Sprintf("|D| = %d records, sort key %s, serial (shardscan wall clock needs 2 cores)", n, key.String(w.Schema)),
		"rows_per_sec on the sortscan row is the headline serial-Q1 throughput tracked by CI")
	return f, nil
}
