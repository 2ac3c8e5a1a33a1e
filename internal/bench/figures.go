package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/exec/sortscan"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/relbaseline"
)

// Config tunes the harness.
type Config struct {
	// Dir holds generated datasets and temporaries; required.
	Dir string
	// Scale multiplies dataset sizes (1.0 = laptop defaults; the
	// paper's sizes are ~80x larger).
	Scale float64
	// Seed makes dataset generation deterministic.
	Seed int64
	// SingleScanBudget is the memory budget (bytes) that makes the
	// single-scan engine exhibit the paper's out-of-memory cliff;
	// 0 defaults to 8 MB.
	SingleScanBudget int64
	// Progress, if non-nil, receives progress lines.
	Progress io.Writer

	// rec collects engine metrics across one Run's engine runs; its
	// snapshot becomes the Figure's Metrics.
	rec *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2006
	}
	if c.SingleScanBudget == 0 {
		c.SingleScanBudget = 8 << 20
	}
	if c.rec == nil {
		c.rec = obs.New()
	}
	return c
}

// engineOptions is the engines' option block for one of the harness's
// runs: temporaries in Dir, spans into the run's recorder.
func (c Config) engineOptions() scan.EngineOptions {
	return scan.EngineOptions{TempDir: c.Dir, Recorder: c.rec}
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// sizeUnit is the scaled stand-in for the paper's "1M records".
const sizeUnit = 6250

func (c Config) size(units int) int64 {
	n := int64(float64(units) * float64(sizeUnit) * c.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Host records the machine and toolchain a figure was produced on, so
// benchdata points are comparable across checkouts without free-text
// notes.
type Host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// HostInfo captures the current process's host metadata.
func HostInfo() Host {
	return Host{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Figure is one regenerated table/plot: rows of labelled series values.
type Figure struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Host is the machine/toolchain the figure was measured on.
	Host *Host `json:"host,omitempty"`
	// Metrics is the recorder snapshot covering the figure's engine
	// runs, so the performance trajectory is machine-diffable.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Fprint renders the figure as an aligned text table.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	widths := make([]int, len(f.Header))
	for i, h := range f.Header {
		widths[i] = len(h)
	}
	for _, r := range f.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			fmt.Fprintf(w, "  %-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(f.Header)
	for _, r := range f.Rows {
		line(r)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d.Microseconds())/1000)
}

// synthFile generates (or reuses) a synthetic dataset of n records.
func (c Config) synthFile(n int64) (string, gen.SynthConfig, error) {
	sc := gen.SynthConfig{Seed: c.Seed}
	path := filepath.Join(c.Dir, fmt.Sprintf("synth-%d.rec", n))
	if _, err := os.Stat(path); err == nil {
		return path, sc, nil
	}
	c.logf("generating synthetic dataset: %d records", n)
	if _, err := gen.Synth(path, n, sc); err != nil {
		return "", sc, err
	}
	return path, sc, nil
}

// netFile generates (or reuses) a network log of ~n records.
func (c Config) netFile(n int64) (string, gen.NetConfig, error) {
	nc := gen.NetConfig{Seed: c.Seed, Days: 7, Escalations: 6, Recons: 6, ReconSources: 60}
	path := filepath.Join(c.Dir, fmt.Sprintf("net-%d.rec", n))
	if _, err := os.Stat(path); err == nil {
		return path, nc, nil
	}
	c.logf("generating network log: ~%d records", n)
	if _, _, err := gen.NetLog(path, n, nc); err != nil {
		return "", nc, err
	}
	return path, nc, nil
}

// timed runs one engine, publishes its stats to the harness recorder,
// and returns its wall-clock time and stats.
func (c Config) timed(run func() (*scan.Result, error)) (time.Duration, obs.EngineStats, error) {
	t0 := time.Now()
	res, err := run()
	if err != nil {
		return 0, obs.EngineStats{}, err
	}
	d := time.Since(t0)
	res.Stats.Publish(c.rec)
	return d, res.Stats, nil
}

// best runs the optimizer and publishes the keys it scored and the
// chosen plan's footprint to the harness recorder.
func (c Config) best(w *core.Compiled, st *plan.Stats) (opt.Choice, error) {
	ch, err := opt.Best(w, st)
	if err == nil {
		c.rec.Counter(obs.MOptKeysScored).Add(int64(ch.KeysScored))
		c.rec.Gauge(obs.GOptBestBytes).SetMax(int64(ch.EstBytes))
	}
	return ch, err
}

// timeSortScan runs the sort/scan engine with an optimizer-chosen key.
func (c Config) timeSortScan(w *core.Compiled, fact string, cards []float64) (time.Duration, obs.EngineStats, error) {
	st := &plan.Stats{BaseCard: cards}
	choice, err := c.best(w, st)
	if err != nil {
		return 0, obs.EngineStats{}, err
	}
	return c.timed(func() (*scan.Result, error) {
		return sortscan.Run(w, scan.FileInput(fact), sortscan.Options{EngineOptions: c.engineOptions(), SortKey: choice.Key, Stats: st})
	})
}

// timeSingleScan runs the single-scan engine under the configured
// memory budget.
func (c Config) timeSingleScan(w *core.Compiled, fact string) (time.Duration, obs.EngineStats, error) {
	return c.timed(func() (*scan.Result, error) {
		return singlescan.Run(w, scan.FileInput(fact), singlescan.Options{EngineOptions: c.engineOptions(), MemoryBudget: c.SingleScanBudget})
	})
}

// timeDB runs the relational baseline on the workflow's final
// measures only (one SQL query per final measure, like the paper).
func (c Config) timeDB(w *core.Compiled, fact string, finals []string) (time.Duration, obs.EngineStats, error) {
	return c.timed(func() (*scan.Result, error) {
		return relbaseline.RunMeasures(w, scan.FileInput(fact), finals, c.engineOptions())
	})
}

// Fig6a: Q1 (seven child/parent measures) across dataset sizes, all
// three engines. Expected shape: single-scan wins only while its hash
// tables fit the budget; sort/scan beats the relational baseline at
// every larger size.
func Fig6a(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig6a",
		Title:  "Q1: child/parent match, 7 child measures (execution time, ms)",
		Header: []string{"records", "SortScan", "DB", "SingleScan", "ss_spills"},
	}
	for _, units := range []int{2, 4, 16, 64} {
		n := cfg.size(units)
		fact, sc, err := cfg.synthFile(n)
		if err != nil {
			return nil, err
		}
		w, err := Q1Workflow(mustSynthSchema(sc), 7)
		if err != nil {
			return nil, err
		}
		cards := SynthStats(sc)
		dSort, _, err := cfg.timeSortScan(w, fact, cards)
		if err != nil {
			return nil, err
		}
		dDB, _, err := cfg.timeDB(w, fact, []string{"q1"})
		if err != nil {
			return nil, err
		}
		dSingle, ssStats, err := cfg.timeSingleScan(w, fact)
		if err != nil {
			return nil, err
		}
		cfg.logf("fig6a n=%d: sortscan=%v db=%v singlescan=%v spills=%d", n, dSort, dDB, dSingle, ssStats.Spills)
		f.Rows = append(f.Rows, []string{
			fmt.Sprint(n), ms(dSort), ms(dDB), ms(dSingle), fmt.Sprint(ssStats.Spills),
		})
	}
	f.Notes = append(f.Notes,
		"single-scan spills indicate the paper's insufficient-memory regime",
		fmt.Sprintf("single-scan memory budget: %d bytes", cfg.SingleScanBudget))
	return f, nil
}

// Fig6b: Q2 (nested sliding windows) across sizes for 2-chain and
// 7-chain. Expected shape: sort/scan beats DB everywhere and its cost
// barely grows with chain depth.
func Fig6b(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig6b",
		Title:  "Q2: sibling match, nested sliding windows (execution time, ms)",
		Header: []string{"records", "SortScan(2)", "DB(2)", "SortScan(7)", "DB(7)"},
	}
	for _, units := range []int{2, 4, 16, 64} {
		n := cfg.size(units)
		fact, sc, err := cfg.synthFile(n)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(n)}
		for _, chain := range []int{2, 7} {
			w, err := Q2Workflow(mustSynthSchema(sc), chain)
			if err != nil {
				return nil, err
			}
			cards := SynthStats(sc)
			dSort, _, err := cfg.timeSortScan(w, fact, cards)
			if err != nil {
				return nil, err
			}
			dDB, _, err := cfg.timeDB(w, fact, []string{"q2"})
			if err != nil {
				return nil, err
			}
			cfg.logf("fig6b n=%d chain=%d: sortscan=%v db=%v", n, chain, dSort, dDB)
			row = append(row, ms(dSort), ms(dDB))
		}
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}

// Fig6c: number of dependent child measures 2..6 at fixed size.
func Fig6c(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig6c",
		Title:  "increasing number of measures for child regions (execution time, ms)",
		Header: []string{"childMeasures", "SortScan", "DB"},
	}
	n := cfg.size(64)
	fact, sc, err := cfg.synthFile(n)
	if err != nil {
		return nil, err
	}
	for k := 2; k <= 6; k++ {
		w, err := Q1Workflow(mustSynthSchema(sc), k)
		if err != nil {
			return nil, err
		}
		dSort, _, err := cfg.timeSortScan(w, fact, SynthStats(sc))
		if err != nil {
			return nil, err
		}
		dDB, _, err := cfg.timeDB(w, fact, []string{"q1"})
		if err != nil {
			return nil, err
		}
		cfg.logf("fig6c k=%d: sortscan=%v db=%v", k, dSort, dDB)
		f.Rows = append(f.Rows, []string{fmt.Sprint(k), ms(dSort), ms(dDB)})
	}
	f.Notes = append(f.Notes, fmt.Sprintf("|D| = %d records", n))
	return f, nil
}

// Fig6d: sibling chain length 2..7 at fixed size.
func Fig6d(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig6d",
		Title:  "increasing size of sibling chains (execution time, ms)",
		Header: []string{"chainLength", "SortScan", "DB"},
	}
	n := cfg.size(64)
	fact, sc, err := cfg.synthFile(n)
	if err != nil {
		return nil, err
	}
	for chain := 2; chain <= 7; chain++ {
		w, err := Q2Workflow(mustSynthSchema(sc), chain)
		if err != nil {
			return nil, err
		}
		dSort, _, err := cfg.timeSortScan(w, fact, SynthStats(sc))
		if err != nil {
			return nil, err
		}
		dDB, _, err := cfg.timeDB(w, fact, []string{"q2"})
		if err != nil {
			return nil, err
		}
		cfg.logf("fig6d chain=%d: sortscan=%v db=%v", chain, dSort, dDB)
		f.Rows = append(f.Rows, []string{fmt.Sprint(chain), ms(dSort), ms(dDB)})
	}
	f.Notes = append(f.Notes, fmt.Sprintf("|D| = %d records", n))
	return f, nil
}

// Fig6e: cost breakdown (sort phase vs scan/update phase) for Q1 and
// Q2 at small and large sizes. Expected shape: the scan/update phase
// dominates, more so for Q1.
func Fig6e(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig6e",
		Title:  "sort vs scan cost breakdown for the sort/scan engine (ms)",
		Header: []string{"query", "records", "sortPhase", "scanPhase"},
	}
	for _, q := range []string{"Q1", "Q2"} {
		for _, units := range []int{2, 64} {
			n := cfg.size(units)
			fact, sc, err := cfg.synthFile(n)
			if err != nil {
				return nil, err
			}
			var w *core.Compiled
			if q == "Q1" {
				w, err = Q1Workflow(mustSynthSchema(sc), 7)
			} else {
				w, err = Q2Workflow(mustSynthSchema(sc), 7)
			}
			if err != nil {
				return nil, err
			}
			_, stats, err := cfg.timeSortScan(w, fact, SynthStats(sc))
			if err != nil {
				return nil, err
			}
			cfg.logf("fig6e %s n=%d: sort=%v scan=%v", q, n, stats.SortTime, stats.ScanTime)
			f.Rows = append(f.Rows, []string{
				q, fmt.Sprint(n), ms(stats.SortTime), ms(stats.ScanTime),
			})
		}
	}
	return f, nil
}

// Fig6f: the combined network query (escalation + multi-recon in one
// workflow). Expected shape: the largest relative win for sort/scan,
// because one pass serves every measure while the baseline runs each
// analysis as its own query stack.
func Fig6f(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig6f",
		Title:  "combined escalation + multi-recon query on network data (ms)",
		Header: []string{"records", "SortScan", "DB", "SingleScan"},
	}
	for _, units := range []int{16, 64} {
		n := cfg.size(units)
		fact, nc, err := cfg.netFile(n)
		if err != nil {
			return nil, err
		}
		s, err := gen.NetSchema()
		if err != nil {
			return nil, err
		}
		w, err := CombinedWorkflow(s, 40)
		if err != nil {
			return nil, err
		}
		cards := NetStats(nc.Days, nc.Sources, nc.Subnets)
		dSort, _, err := cfg.timeSortScan(w, fact, cards)
		if err != nil {
			return nil, err
		}
		dDB, _, err := cfg.timeDB(w, fact, []string{"alarms", "sweeps"})
		if err != nil {
			return nil, err
		}
		dSingle, _, err := cfg.timeSingleScan(w, fact)
		if err != nil {
			return nil, err
		}
		cfg.logf("fig6f n=%d: sortscan=%v db=%v singlescan=%v", n, dSort, dDB, dSingle)
		f.Rows = append(f.Rows, []string{fmt.Sprint(n), ms(dSort), ms(dDB), ms(dSingle)})
	}
	return f, nil
}

// Fig7a: network escalation detection alone. Expected shape: the
// intermediate result is small, so the sort dominates sort/scan's
// cost and the plain single scan wins.
func Fig7a(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig7a",
		Title:  "network escalation detection (ms)",
		Header: []string{"records", "SingleScan", "SortScan", "DB"},
	}
	for _, units := range []int{16, 64} {
		n := cfg.size(units)
		fact, nc, err := cfg.netFile(n)
		if err != nil {
			return nil, err
		}
		s, err := gen.NetSchema()
		if err != nil {
			return nil, err
		}
		w, err := EscalationWorkflow(s)
		if err != nil {
			return nil, err
		}
		cards := NetStats(nc.Days, nc.Sources, nc.Subnets)
		dSingle, _, err := cfg.timeSingleScan(w, fact)
		if err != nil {
			return nil, err
		}
		dSort, _, err := cfg.timeSortScan(w, fact, cards)
		if err != nil {
			return nil, err
		}
		dDB, _, err := cfg.timeDB(w, fact, []string{"alarms"})
		if err != nil {
			return nil, err
		}
		cfg.logf("fig7a n=%d: singlescan=%v sortscan=%v db=%v", n, dSingle, dSort, dDB)
		f.Rows = append(f.Rows, []string{fmt.Sprint(n), ms(dSingle), ms(dSort), ms(dDB)})
	}
	f.Notes = append(f.Notes, "small intermediate result: sorting is pure overhead here")
	return f, nil
}

// Fig7b: multi-recon detection alone. Expected shape: sort/scan
// significantly faster than the relational baseline.
func Fig7b(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID:     "fig7b",
		Title:  "multi-recon detection (ms)",
		Header: []string{"records", "SingleScan", "SortScan", "DB"},
	}
	for _, units := range []int{16, 64} {
		n := cfg.size(units)
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
		cards := NetStats(nc.Days, nc.Sources, nc.Subnets)
		dSingle, _, err := cfg.timeSingleScan(w, fact)
		if err != nil {
			return nil, err
		}
		dSort, _, err := cfg.timeSortScan(w, fact, cards)
		if err != nil {
			return nil, err
		}
		dDB, _, err := cfg.timeDB(w, fact, []string{"sweeps"})
		if err != nil {
			return nil, err
		}
		cfg.logf("fig7b n=%d: singlescan=%v sortscan=%v db=%v", n, dSingle, dSort, dDB)
		f.Rows = append(f.Rows, []string{fmt.Sprint(n), ms(dSingle), ms(dSort), ms(dDB)})
	}
	return f, nil
}

func mustSynthSchema(c gen.SynthConfig) *model.Schema {
	s, err := gen.SynthSchema(c)
	if err != nil {
		panic(err) // static configuration; cannot fail at runtime
	}
	return s
}

// runners maps figure ids to their runners.
var runners = map[string]func(Config) (*Figure, error){
	"abl-flush": AblFlush,
	"abl-key":   AblKey,
	"abl-par":   AblPar,
	"fig6a":     Fig6a,
	"fig6b":     Fig6b,
	"fig6c":     Fig6c,
	"fig6d":     Fig6d,
	"fig6e":     Fig6e,
	"fig6f":     Fig6f,
	"fig7a":     Fig7a,
	"fig7b":     Fig7b,
}

// IDs lists the available figures in order.
func IDs() []string {
	out := make([]string, 0, len(runners))
	for id := range runners {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run regenerates one figure by id and attaches the recorder snapshot
// covering its engine runs.
func Run(id string, cfg Config) (*Figure, error) {
	r, ok := runners[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("bench: unknown figure %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	cfg = cfg.withDefaults()
	f, err := r(cfg)
	if f != nil {
		host := HostInfo()
		f.Host = &host
		snap := cfg.rec.Snapshot()
		snap.Spans = nil // span trees grow unboundedly across runs; keep figures compact
		f.Metrics = &snap
	}
	return f, err
}

// All regenerates every figure.
func All(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, id := range IDs() {
		f, err := Run(id, cfg)
		if err != nil {
			return out, fmt.Errorf("bench: %s: %w", id, err)
		}
		out = append(out, f)
	}
	return out, nil
}
