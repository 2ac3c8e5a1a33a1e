package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"awra/aw"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/wfdsl"
)

// toySizes run every workload in well under a second.
var toySizes = sizes{batchRows: 20_000, oracleRows: 2_000, netRows: 1_500, traceReps: 1, setupRounds: 1}

const toySeconds = 0.25 // about 40 requests on the serve workloads

// benchmarkJSON is the contract file's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the tables
// the harness emits from: same workloads and rationale, same metrics
// with unit, direction and bound, and names and units inside the
// contract's alphabets and limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.Command, []string{"bash", "perf/run.sh"}) || !reflect.DeepEqual(bj.Paths, []string{"perf"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bj.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: end_to_end %d/%d per_layer %d/%d", len(bj.EndToEnd), len(endToEnd), len(bj.PerLayer), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.name)
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", d.name, d.unit, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for i, d := range perLayer {
		name(d.name)
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound != 0 {
			t.Errorf("%s: unit %q bound %v", d.name, d.unit, d.bound)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs all five workloads at toy
// scale, both passes: each must be correct and emit exactly the
// pass's metric names, each finite (metricSet panics on a repeat or a
// non-finite value), and the traced pass must write its span file.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		// In parallel: the values do not matter here, the wall time does.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			everyMetric(t, w)
		})
	}
}

func everyMetric(t *testing.T, w workload) {
	out := t.TempDir()
	for _, trace := range []bool{false, true} {
		cfg := runConfig{seed: defaultSeed, seconds: toySeconds, trace: trace, sz: toySizes, outDir: out}
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d notes=%v", trace, res.Correct, res.Attempted, res.Failed, res.detail.Notes)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok {
				t.Errorf("trace=%v: %s missing", trace, d.name)
				continue
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
				t.Errorf("trace=%v: %s = %v %s", trace, d.name, m.Value, m.Unit)
			}
			if !trace && m.Value <= 0 {
				t.Errorf("end-to-end metric %s must never be 0, is %v", d.name, m.Value)
			}
		}
		line, _ := json.Marshal(res)
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
			t.Errorf("the result line must have exactly correct, attempted, failed, metrics: %s", line)
		}
	}
	var spans []span
	b, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
		t.Errorf("trace file: %v, %d spans", err, len(spans))
	}
	for _, s := range spans {
		if s.Name == "" || s.EndNs < s.StartNs || s.RunID == "" || s.Parent >= len(spans) {
			t.Errorf("bad span %+v", s)
			break
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "work-*")); len(left) > 0 {
		t.Errorf("work directories left behind: %v", left)
	}
}

// toyCube writes a small cube and returns Q1 parsed and the path.
func toyCube(t *testing.T) (*wfdsl.Parsed, string) {
	t.Helper()
	fact := filepath.Join(t.TempDir(), "cube.rec")
	if _, err := gen.Synth(fact, toySizes.oracleRows, gen.SynthConfig{Seed: defaultSeed}); err != nil {
		t.Fatal(err)
	}
	p, err := wfdsl.Parse(q1Text)
	if err != nil {
		t.Fatal(err)
	}
	return p, fact
}

// TestChecksFireOnCorruptedTable corrupts one value of one table and
// expects the core.Eval oracle, the digest and the serve-side
// comparison each to notice.
func TestChecksFireOnCorruptedTable(t *testing.T) {
	p, fact := toyCube(t)
	o, err := batchOpts("singlescan", 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := aw.Run(context.Background(), p.Workflow, aw.FromFile(fact), o)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(fact)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalOracle(p.Compiled, recs)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleMismatches(want, got); n != 0 {
		t.Fatalf("clean tables: %d mismatches against core.Eval", n)
	}
	cleanDigest, cleanRows := digest(got), project(got)
	for k, v := range got["q1"].Rows {
		got["q1"].Rows[k] = v + 1
		break
	}
	if oracleMismatches(want, got) != 1 {
		t.Error("the core.Eval oracle missed a corrupted q1 value")
	}
	if digest(got) == cleanDigest {
		t.Error("the digest missed a corrupted q1 value")
	}
	if measuresEqual(cleanRows, project(got)) {
		t.Error("the serve-side comparison missed a corrupted q1 value")
	}
	delete(got, "q1")
	if oracleMismatches(want, got) != 1 || digest(got) == cleanDigest {
		t.Error("a missing table went unnoticed")
	}
}

// TestStaircaseMonotone checks the cumulative steps never decrease, so
// no layer is priced below zero.
func TestStaircaseMonotone(t *testing.T) {
	p, fact := toyCube(t)
	l := newLap()
	if err := l.staircase(nil, t.TempDir(), fact, p.Compiled, model.SortKey(q1SortKey)); err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, step := range stairSteps {
		if l.secs[step] < prev || l.secs[step] <= 0 {
			t.Errorf("step %s = %v after %v", step, l.secs[step], prev)
		}
		prev = l.secs[step]
	}
	if l.rows != toySizes.oracleRows || l.cells == 0 || l.sortRuns == 0 {
		t.Errorf("staircase snapshots: rows %d cells %d sort runs %d", l.rows, l.cells, l.sortRuns)
	}
}

// TestCompareVerdicts feeds -compare synthetic sets: equal sets pass,
// a slower second set is a regression, a noisy set is unresolved.
func TestCompareVerdicts(t *testing.T) {
	mk := func(scale float64, jitter float64) string {
		set := resultSet{Seed: defaultSeed, Seconds: defaultSeconds}
		for _, w := range workloads {
			for i := 0; i < 10; i++ {
				r := setRun{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
				r.Workload, r.Seed = w.name, int64(defaultSeed+i)
				for _, d := range endToEnd {
					v := 100 * (1 + jitter*float64(i%5))
					if d.name == "lat_p50_ms" {
						v *= scale
					}
					r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
				}
				set.Runs = append(set.Runs, r)
			}
		}
		path := filepath.Join(t.TempDir(), "set.json")
		b, _ := json.Marshal(set)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1, 0.001)
	var out bytes.Buffer
	if code := compareSets(&out, base, mk(1, 0.001)); code != 0 || strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, base, mk(1.5, 0.001)); code == 0 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 50%% slower set must be a regression: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, base, mk(1, 0.3)); code == 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set noisier than the bound must be unresolved: exit %d\n%s", code, out.String())
	}
	if s := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
		t.Errorf("quartileSpread = %v, want 1", s)
	}
}
