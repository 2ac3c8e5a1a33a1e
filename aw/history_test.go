package aw_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"awra/aw"
	"awra/internal/obs"
)

func countSources(p *aw.Profile) (measured, other int) {
	for _, n := range p.Nodes {
		if n.EstSource == aw.SourceMeasured {
			measured++
		} else {
			other++
		}
	}
	return
}

// TestHistoryMeasuredFeedback is the tentpole round trip: run once with
// a History attached, and the second plan for the same workflow on the
// same collection uses measured cell counts, visibly in EXPLAIN.
func TestHistoryMeasuredFeedback(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(3000, 31))
	dir := t.TempDir()
	h, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	in := aw.FromFile(fact)
	o := aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h},
		TempDir:     filepath.Dir(fact),
	}

	prof, err := aw.ExplainFor(c, in, o)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countSources(prof); m != 0 {
		t.Fatalf("plan used %d measured nodes before any run", m)
	}

	if _, err := aw.RunCompiled(context.Background(), c, in, o); err != nil {
		t.Fatal(err)
	}
	if n := h.Len(); n != 1 {
		t.Fatalf("history has %d records after one run, want 1", n)
	}
	if h.MeasuredStats() == 0 {
		t.Fatal("no measured statistics after a successful run")
	}

	prof2, err := aw.ExplainFor(c, in, o)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countSources(prof2); m == 0 {
		t.Fatalf("second plan has no measured nodes: %+v", prof2.Nodes)
	}
	if !strings.Contains(prof2.String(), "(measured)") {
		t.Errorf("EXPLAIN does not label measured estimates:\n%s", prof2.String())
	}
	b, err := json.Marshal(prof2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"est_source":"measured"`) {
		t.Errorf("profile JSON lacks est_source=measured: %s", b)
	}

	// A plan without the history must not see measured statistics.
	plain, err := aw.ExplainFor(c, in, aw.QueryOptions{TempDir: filepath.Dir(fact)})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countSources(plain); m != 0 {
		t.Fatalf("history-free plan claims %d measured nodes", m)
	}

	// The second run itself still succeeds and appends.
	if _, err := aw.RunCompiled(context.Background(), c, in, o); err != nil {
		t.Fatal(err)
	}
	if n := h.Len(); n != 2 {
		t.Fatalf("history has %d records after two runs, want 2", n)
	}
}

// TestHistoryAnalyzeLabelsFirstRunUnmeasured guards the freeze
// semantics: ExplainAnalyzeCompiled's profile reflects what the planner knew
// before the run, so the very first analyzed run must not label itself
// "measured" from its own record.
func TestHistoryAnalyzeLabelsFirstRunUnmeasured(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(2000, 32))
	h, err := aw.OpenHistory(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	o := aw.QueryOptions{ExecOptions: aw.ExecOptions{History: h}, TempDir: filepath.Dir(fact)}
	r1, err := aw.ExplainAnalyzeCompiled(context.Background(), c, aw.FromFile(fact), o)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countSources(r1.Profile); m != 0 {
		t.Fatalf("first analyzed run labeled %d nodes measured from its own record", m)
	}
	r2, err := aw.ExplainAnalyzeCompiled(context.Background(), c, aw.FromFile(fact), o)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countSources(r2.Profile); m == 0 {
		t.Fatal("second analyzed run planned without measured statistics")
	}
}

// TestHistorySurvivesRestart: the JSONL log is the source of truth —
// reopening the directory restores the measured store, the recent ring,
// and the latency percentiles.
func TestHistorySurvivesRestart(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(2000, 33))
	dir := t.TempDir()
	h, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	in := aw.FromFile(fact)
	o := aw.QueryOptions{ExecOptions: aw.ExecOptions{History: h}, TempDir: filepath.Dir(fact)}
	if _, err := aw.RunCompiled(context.Background(), c, in, o); err != nil {
		t.Fatal(err)
	}
	wantStats := h.MeasuredStats()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := aw.OpenHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if n := h2.Len(); n != 1 {
		t.Fatalf("reopened history has %d records, want 1", n)
	}
	if got := h2.MeasuredStats(); got != wantStats {
		t.Fatalf("reopened history has %d measured stats, want %d", got, wantStats)
	}
	sum := h2.Summary(10)
	if len(sum.Recent) != 1 || sum.Recent[0].Outcome != aw.OutcomeOK {
		t.Fatalf("reopened summary recent = %+v", sum.Recent)
	}
	if len(sum.Latency) == 0 || sum.Latency[0].Count != 1 || sum.Latency[0].P50Us <= 0 {
		t.Fatalf("reopened summary lost latency histograms: %+v", sum.Latency)
	}
	// And the restored store still feeds plans.
	o2 := aw.QueryOptions{ExecOptions: aw.ExecOptions{History: h2}, TempDir: filepath.Dir(fact)}
	prof, err := aw.ExplainFor(c, in, o2)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := countSources(prof); m == 0 {
		t.Fatal("plan after restart has no measured nodes")
	}
}

// inflightEmpty asserts no query is stuck in the process-global
// registry.
func inflightEmpty(t *testing.T) {
	t.Helper()
	if qs := obs.DefaultInflight.Snapshot(); len(qs) != 0 {
		t.Fatalf("in-flight registry not empty: %+v", qs)
	}
}

// TestHistoryEarlyFailures: queries that fail before (or immediately
// after) reaching an engine must leave the in-flight registry clean AND
// still produce a history record with the right outcome.
func TestHistoryEarlyFailures(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(2000, 34))
	h, err := aw.OpenHistory(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// 1. Compile error: never enters the registry, still recorded.
	bad := aw.NewWorkflow(s).Rollup("orphan", aw.Gran{0, 0, 0, 0}, "missing", aw.Sum)
	if _, err := aw.Run(context.Background(), bad, aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h},
	}); err == nil {
		t.Fatal("compile error did not surface")
	}
	inflightEmpty(t)
	if n := h.Len(); n != 1 {
		t.Fatalf("history has %d records after compile error, want 1", n)
	}
	if r := h.Recent(1)[0]; r.Outcome != aw.OutcomeError || r.Error == "" {
		t.Fatalf("compile-error record = %+v", r)
	}

	// 2. Unshardable plan: forcing shardscan on a workflow whose sliding
	// window spans shard units fails in planning.
	gHourIP, err := s.MakeGran(map[string]string{"t": "Hour", "U": "IP"})
	if err != nil {
		t.Fatal(err)
	}
	win := aw.NewWorkflow(s).
		Basic("Count", gHourIP, aw.Count, -1).
		Sliding("prev", "Count", aw.Sum, []aw.Window{{Dim: 0, Lo: -1, Hi: -1}})
	if _, err := aw.Run(context.Background(), win, aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, Engine: aw.EngineShardScan, Parallelism: 2},
		TempDir:     filepath.Dir(fact),
	}); err == nil {
		t.Fatal("unshardable plan did not surface an error")
	}
	inflightEmpty(t)
	if n := h.Len(); n != 2 {
		t.Fatalf("history has %d records after unshardable plan, want 2", n)
	}
	if r := h.Recent(1)[0]; r.Outcome != aw.OutcomeError {
		t.Fatalf("unshardable-plan record = %+v", r)
	}

	// 3. Immediate budget rejection.
	if _, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, MaxResultRows: 1},
		TempDir:     filepath.Dir(fact),
	}); !errors.Is(err, aw.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	inflightEmpty(t)
	if r := h.Recent(1)[0]; r.Outcome != aw.OutcomeBudget {
		t.Fatalf("budget record = %+v", r)
	}

	// 4. Timeout: recorded as canceled.
	if _, err := aw.Run(context.Background(), busyWorkflow(t, s, 1), aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, Timeout: time.Nanosecond},
		TempDir:     filepath.Dir(fact),
	}); !errors.Is(err, aw.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	inflightEmpty(t)
	if r := h.Recent(1)[0]; r.Outcome != aw.OutcomeCanceled {
		t.Fatalf("timeout record = %+v", r)
	}
	if n := h.Len(); n != 4 {
		t.Fatalf("history has %d records, want 4", n)
	}
}

// TestHistoryRecordContents spot-checks the fields downstream tooling
// depends on: phases, node profiles with signatures, and fingerprints.
func TestHistoryRecordContents(t *testing.T) {
	s := attackSchema(t)
	fact := writeAttackFact(t, attackRecords(2000, 35))
	h, err := aw.OpenHistory(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c, err := busyWorkflow(t, s, 1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{History: h, Engine: aw.EngineSortScan},
		TempDir:     filepath.Dir(fact),
	}); err != nil {
		t.Fatal(err)
	}
	r := h.Recent(1)[0]
	if r.Engine != "sortscan" || r.Outcome != aw.OutcomeOK {
		t.Fatalf("record = %+v", r)
	}
	if r.QueryFP == "" || !strings.HasPrefix(r.CollectionFP, "f-") {
		t.Fatalf("missing fingerprints: %q %q", r.QueryFP, r.CollectionFP)
	}
	if r.DurationUs <= 0 || r.Records == 0 {
		t.Fatalf("missing run totals: %+v", r)
	}
	if len(r.Phases) == 0 {
		t.Fatal("no phase durations")
	}
	if r.SortKey == "" {
		t.Fatal("no sort key on a sortscan run")
	}
	if len(r.Nodes) != 3 {
		t.Fatalf("got %d node profiles, want 3", len(r.Nodes))
	}
	for _, n := range r.Nodes {
		if n.Sig == "" {
			t.Fatalf("node %q has no signature", n.Node)
		}
		if n.CellsFinalized == 0 {
			t.Fatalf("node %q has no finalized cells: %+v", n.Node, n)
		}
	}
}

// writeProbeFile writes a 200 KiB file, more than three probe windows,
// so CollectionFingerprint reads both its head and its tail.
func writeProbeFile(tb testing.TB) aw.Input {
	tb.Helper()
	p := filepath.Join(tb.TempDir(), "facts.rec")
	if err := os.WriteFile(p, bytes.Repeat([]byte("0123456789abcdef"), 200<<6), 0o644); err != nil {
		tb.Fatal(err)
	}
	return aw.FromFile(p)
}

var fingerprintSink string

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

func BenchmarkCollectionFingerprint(b *testing.B) {
	in := writeProbeFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp, err := aw.CollectionFingerprint(in)
		if err != nil {
			b.Fatal(err)
		}
		fingerprintSink = fp
	}
}

// TestCollectionFingerprintAllocs: the serve path reads the identity on
// every request, so its 64 KiB probe buffer must not be allocated per
// call. The race detector's sync.Pool drops a quarter of its puts on
// purpose, which would charge the pool's misses to the function.
func TestCollectionFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	in := writeProbeFile(t)
	if _, err := aw.CollectionFingerprint(in); err != nil {
		t.Fatal(err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := aw.CollectionFingerprint(in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 16<<10 {
		t.Errorf("CollectionFingerprint allocates %d B a call, want < 16 KiB", per)
	}
}
