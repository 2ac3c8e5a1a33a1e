package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// median returns the middle of vs (mean of the two middles when even);
// 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quantile is the nearest-rank p-quantile of vs; 0 when empty.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(len(s))))-1]
}

// quartileSpread is the distance between the first and third quartile
// of vs as a share of their median, the quartiles as Python's
// statistics.quantiles(vs, n=4) gives them (exclusive method) — the
// rule the benchmark's acceptance uses. It needs two values.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload and pass over a set.
func (s *resultSet) values(workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareSets prints every end-to-end metric × workload in its own
// row — both medians, how much worse b is than a, the bound — and the
// exact-count metrics of the traced runs. A pair is `unresolved` when
// either set's own quartile spread exceeds the bound (setup_s excepted,
// as in the benchmark's acceptance rule: a median of three short rounds
// per run spreads widely, only its median is held), `REGRESSION` when
// b's median is worse than a's by more than the bound, `MISMATCH` when
// a count that must repeat exactly did not. It returns the exit code.
func compareSets(out io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	fmt.Fprintf(out, "a: %s  commit %s  %s\nb: %s  commit %s  %s\n", pathA, a.Host.Commit, a.Host.Time, pathB, b.Host.Commit, b.Host.Time)
	fmt.Fprintf(out, "%-18s %-16s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, 0, d.name), b.values(w.name, 0, d.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-18s %-16s missing from a set\n", w.name, d.name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case d.name != "setup_s" && (sa > d.bound || sb > d.bound):
				verdict = "unresolved"
				code = 1
			case worse > d.bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(out, "%-18s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, d.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	// Counts that must repeat exactly, on serial workloads, for runs of
	// the same workload and seed.
	for _, w := range workloads {
		if w.serve || w.workers > 1 {
			continue
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			va, vb := a.values(w.name, 1, d.name), b.values(w.name, 1, d.name)
			if len(va) == 0 || len(vb) == 0 || a.Seed != b.Seed {
				continue
			}
			if va[0] != vb[0] {
				fmt.Fprintf(out, "%-18s %-26s %14.0f %14.0f  MISMATCH (must repeat exactly)\n", w.name, d.name, va[0], vb[0])
				code = 1
			}
		}
	}
	if code == 0 {
		fmt.Fprintln(out, "every pair within its bound; exact counts repeat")
	}
	return code
}
