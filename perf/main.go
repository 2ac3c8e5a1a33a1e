// Command perf is the repository's benchmark: five named workloads
// measured end to end through the two surfaces users touch (aw.Run on
// a fact file, POST /query on an in-process serve.Server) and, in a
// separate traced pass, layer by layer from outside — by timing calls
// into the layers' public functions on the same inputs. README.md has
// the metric and workload tables; BENCHMARK.json at the repository root
// is the machine-readable contract.
//
//	bash perf/run.sh --workload batch-sortscan --seed 2006 --seconds 10 --trace 0
//	bash perf/run.sh -runs 10 -o perf/out/a.json      # every workload, one child process each
//	bash perf/run.sh -compare perf/out/a.json perf/out/b.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what one workload run needs to know.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	// outDir receives work files (removed at exit) and trace-*.json.
	outDir string
}

// result is one run's outcome; its JSON form, less Detail, is the
// contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	detail    runDetail
	na        map[string]string
}

// runDetail is what a run reports beyond the contract line: the
// "detail: {...}" line on standard output, which the all-workloads
// mode copies into its result set.
type runDetail struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    int      `json:"trace"`
	Samples  int      `json:"samples"`
	Digest   string   `json:"digest,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

func main() {
	var (
		wname   = flag.String("workload", "", "run this one workload in this process (default: every workload, one child process each)")
		seed    = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = the traced pass (per-layer metrics, writes out/trace-<workload>.json); 0 = end-to-end metrics")
		runs    = flag.Int("runs", 1, "all-workloads mode: runs per workload and pass, with seeds seed, seed+1, ...")
		outFile = flag.String("o", "", "all-workloads mode: write the result set to this file")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *wname == "":
		os.Exit(runAll(*seed, *seconds, *runs, *outFile))
	}
	w, ok := findWorkload(*wname)
	if !ok {
		fatalf("unknown workload %q", *wname)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	host := readHost()
	host.print(os.Stdout, *seed)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, outDir: outDir()}
	res, err := runWorkload(w, cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res.print(os.Stdout, w, cfg)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(2)
}

// outDir is perf/out under the checkout root, wherever the binary was
// started from (run.sh starts it at the root, `go run -C perf .` in
// perf/).
func outDir() string {
	if st, err := os.Stat("perf"); err == nil && st.IsDir() {
		return filepath.Join("perf", "out")
	}
	return "out"
}

// runWorkload runs one workload in this process: its own scratch
// directory, the end-to-end or the traced pass, scratch removed.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	work := filepath.Join(cfg.outDir, fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	defs := endToEnd
	var tr *tracer
	if cfg.trace {
		defs = perLayer
		tr = newTracer(fmt.Sprintf("%s-%d", w.name, cfg.seed))
	}
	ms := newMetricSet(defs)
	var (
		res *result
		err error
	)
	if w.serve {
		res, err = runServe(w, cfg, work, ms, tr)
	} else {
		res, err = runBatch(w, cfg, work, ms, tr)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		ms.set("fail_share", float64(res.Failed)/float64(res.Attempted))
		if err := tr.flush(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	if err := ms.finish(w, !cfg.trace); err != nil {
		return nil, err
	}
	res.Metrics, res.na = ms.vals, ms.na
	res.Correct = res.Failed == 0
	res.detail.Workload, res.detail.Seed = w.name, cfg.seed
	if cfg.trace {
		res.detail.Trace = 1
	}
	return res, nil
}

// print writes the human-readable table, the detail line, and last the
// contract's one JSON object.
func (r *result) print(out *os.File, w workload, cfg runConfig) {
	pass := "end-to-end"
	if cfg.trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(out, "workload %s  pass %s  seed %d  window %.3gs  samples %d\n", w.name, pass, cfg.seed, cfg.seconds, r.detail.Samples)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if why, ok := r.na[n]; ok {
			fmt.Fprintf(out, "  %-28s %14s  (%s)\n", n, "n/a", why)
			continue
		}
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.detail.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	fmt.Fprintf(out, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	d, _ := json.Marshal(r.detail)
	fmt.Fprintf(out, "detail: %s\n", d)
	line, _ := json.Marshal(r)
	fmt.Fprintf(out, "%s\n", line)
}

// hostInfo is the host block every output carries.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	Time       string  `json:"time"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Commit:     readCommit(),
		Load1:      -1,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.Load1 = v
			}
		}
	}
	return h
}

// readCommit resolves HEAD by reading .git directly (the driver's
// checkout is not a repository, so "unknown" is a normal answer).
func readCommit() string {
	for _, root := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		head := strings.TrimSpace(string(b))
		ref, ok := strings.CutPrefix(head, "ref: ")
		if !ok {
			return head
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return "unknown"
}

func (h hostInfo) print(out *os.File, seed int64) {
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s seed=%d load1=%.2f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Commit, seed, h.Load1)
	if h.Load1 > 0.5*float64(h.NProc) {
		fmt.Fprintf(out, "warning: 1-min load average %.2f exceeds half of nproc=%d; timings will be noisy\n", h.Load1, h.NProc)
	}
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS watermark at the current
// resident set, so the next peakRSSMB reports the peak since now. Where
// /proc/self/clear_refs is not writable the watermark stays the whole
// process's, which peakRSSMB then reports.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set: VmHWM since the last
// reset, or ru_maxrss where /proc is not there (Linux reports both in
// kilobytes).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				if f := strings.Fields(v); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resultSet is what the all-workloads mode writes and -compare reads.
type resultSet struct {
	Host    hostInfo `json:"host"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

type setRun struct {
	runDetail
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runAll runs every workload `runs` times end to end and once traced,
// each run in its own child process so peak RSS and allocation deltas
// belong to one workload, and checks what only a whole set can: that
// the three batch workloads computed the same tables.
func runAll(seed int64, seconds float64, runs int, outFile string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	host := readHost()
	host.print(os.Stdout, seed)
	set := resultSet{Host: host, Seed: seed, Seconds: seconds}
	bad := 0
	child := func(w workload, s int64, trace int) {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		run, perr := parseChild(out)
		if err != nil || perr != nil {
			fmt.Printf("%-18s seed %d trace %d: FAILED (%v %v)\n%s", w.name, s, trace, err, perr, out)
			bad++
			return
		}
		fmt.Printf("%-18s seed %d trace %d: correct=%v attempted=%d failed=%d", w.name, s, trace, run.Correct, run.Attempted, run.Failed)
		for _, d := range endToEnd {
			if m, ok := run.Metrics[d.name]; ok {
				fmt.Printf("  %s=%.4g", d.name, m.Value)
			}
		}
		fmt.Println()
		set.Runs = append(set.Runs, run)
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			child(w, seed+int64(i), 0)
		}
		child(w, seed, 1)
	}
	// Cross-workload check: one digest per seed across batch-*.
	digests := map[int64]map[string]bool{}
	for _, r := range set.Runs {
		if r.Digest == "" {
			continue
		}
		if digests[r.Seed] == nil {
			digests[r.Seed] = map[string]bool{}
		}
		digests[r.Seed][r.Digest] = true
	}
	for s, ds := range digests {
		if len(ds) != 1 {
			fmt.Printf("DIGEST MISMATCH at seed %d: batch workloads computed %d different results\n", s, len(ds))
			bad++
		}
	}
	if bad == 0 {
		fmt.Println("batch result digests equal across batch-sortscan, batch-singlescan, batch-parallel")
	}
	if outFile != "" {
		b, _ := json.MarshalIndent(set, "", " ")
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// parseChild reads a child's standard output: the detail line and the
// contract's last line.
func parseChild(out []byte) (setRun, error) {
	var run setRun
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if d, ok := bytes.CutPrefix(line, []byte("detail: ")); ok {
			if err := json.Unmarshal(d, &run.runDetail); err != nil {
				return run, err
			}
		}
		if len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := json.Unmarshal(last, &run); err != nil {
		return run, fmt.Errorf("last line is not the result object: %w", err)
	}
	return run, nil
}
