package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"awra/internal/exec/singlescan"
	"awra/internal/gen"
	"awra/internal/obs"
)

// tinyCfg runs the harness at 1/25 scale so tests stay fast.
func tinyCfg(t *testing.T) Config {
	t.Helper()
	return Config{Dir: t.TempDir(), Scale: 0.04, Seed: 42, SingleScanBudget: 1 << 20}
}

func TestAllFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness is slow in -short mode")
	}
	cfg := tinyCfg(t)
	figs, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 11 {
		t.Fatalf("got %d figures, want 11", len(figs))
	}
	for _, f := range figs {
		if f.Host == nil || f.Host.GoMaxProcs < 1 || f.Host.GoVersion == "" {
			t.Errorf("%s: missing host metadata: %+v", f.ID, f.Host)
		}
	}
	for _, f := range figs {
		if len(f.Rows) == 0 {
			t.Errorf("%s: no rows", f.ID)
		}
		for _, r := range f.Rows {
			if len(r) != len(f.Header) {
				t.Errorf("%s: row width %d, header width %d", f.ID, len(r), len(f.Header))
			}
		}
		var buf bytes.Buffer
		f.Fprint(&buf)
		if !strings.Contains(buf.String(), f.ID) {
			t.Errorf("%s: Fprint lost the id", f.ID)
		}
	}
}

// TestSingleScanSeriesReadsThroughScan: the figures' single-scan
// column runs the batched file reader that file queries use, so its
// recorder carries the reader's chunk tallies (the row-at-a-time reader
// publishes none).
func TestSingleScanSeriesReadsThroughScan(t *testing.T) {
	cfg := tinyCfg(t).withDefaults()
	fact, sc, err := cfg.synthFile(cfg.size(2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Q1Workflow(mustSynthSchema(sc), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cfg.timeSingleScan(w, fact); err != nil {
		t.Fatal(err)
	}
	if got := cfg.rec.Counter(obs.MScanChunks).Value(); got == 0 {
		t.Fatalf("%s = 0: the single-scan series did not read through scan", obs.MScanChunks)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("fig99", tinyCfg(t)); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{"abl-flush", "abl-key", "abl-par", "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig7a", "fig7b"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v", got)
		}
	}
}

// TestWorkflowsProduceMeaningfulResults runs the network workloads on
// planted data and checks the queries actually detect the events —
// the semantic end of the Section 7.2 reproduction.
func TestWorkflowsProduceMeaningfulResults(t *testing.T) {
	dir := t.TempDir()
	fact := dir + "/net.rec"
	nc := gen.NetConfig{Days: 3, Escalations: 3, Recons: 3, ReconSources: 50, Seed: 9}
	s, truth, err := gen.NetLog(fact, 60000, nc)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-recon: every planted sweep day must be flagged.
	w, err := ReconWorkflow(s, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := singlescan.RunFile(w, fact, singlescan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sweeps := res.Tables["sweeps"]
	day, _ := s.Dim(0).LevelByName("Day")
	_ = day
	flaggedDays := map[string]float64{}
	for k, v := range sweeps.Rows {
		flaggedDays[sweeps.Codec.Format(k)] = v
	}
	total := 0.0
	for _, v := range flaggedDays {
		total += v
	}
	if total < float64(len(truth.Recons)) {
		t.Errorf("sweeps detected %.0f subnet-days, planted %d: %v", total, len(truth.Recons), flaggedDays)
	}

	// Escalation: alarms must fire on at least the planted peak hours.
	we, err := EscalationWorkflow(s)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := singlescan.RunFile(we, fact, singlescan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alarms := res2.Tables["alarms"]
	count := 0.0
	for _, v := range alarms.Rows {
		count += v
	}
	if count < float64(len(truth.Escalations)) {
		t.Errorf("alarms = %.0f, planted %d escalations", count, len(truth.Escalations))
	}
}

// TestQ1WorkflowShape sanity-checks the synthetic workload builders.
func TestQ1WorkflowShape(t *testing.T) {
	sc := gen.SynthConfig{Seed: 1}
	s, err := gen.SynthSchema(sc)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 7; k++ {
		c, err := Q1Workflow(s, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := len(c.Outputs()); got != 2*k+1 {
			t.Errorf("k=%d: outputs = %d, want %d", k, got, 2*k+1)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("k=8 did not panic")
			}
		}()
		Q1Workflow(s, 8)
	}()
}

func TestQ2WorkflowShape(t *testing.T) {
	sc := gen.SynthConfig{Seed: 1}
	s, err := gen.SynthSchema(sc)
	if err != nil {
		t.Fatal(err)
	}
	for chain := 1; chain <= 7; chain++ {
		c, err := Q2Workflow(s, chain)
		if err != nil {
			t.Fatalf("chain=%d: %v", chain, err)
		}
		found := false
		for _, name := range c.Outputs() {
			if name == "q2" {
				found = true
			}
		}
		if !found {
			t.Errorf("chain=%d: no q2 output in %v", chain, c.Outputs())
		}
	}
}

func TestSizeScaling(t *testing.T) {
	c := Config{Scale: 1}.withDefaults()
	if c.size(2) != 2*sizeUnit {
		t.Errorf("size(2) = %d", c.size(2))
	}
	half := Config{Scale: 0.5}.withDefaults()
	if half.size(64) != 64*sizeUnit/2 {
		t.Errorf("scaled size = %d", half.size(64))
	}
	tiny := Config{Scale: 0.0001}.withDefaults()
	if tiny.size(2) != 1000 {
		t.Errorf("floor = %d", tiny.size(2))
	}
	if s := strconv.FormatInt(c.size(64), 10); s == "" {
		t.Error("unreachable")
	}
}
