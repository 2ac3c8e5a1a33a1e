package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time, JSON-serializable view of a recorder:
// every counter and gauge plus the span tree. Benchmark figures embed
// snapshots so the performance trajectory is machine-diffable across
// PRs.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []*SpanSnapshot     `json:"spans,omitempty"`
}

// SpanSnapshot is one span in a Snapshot. Still-running spans carry
// their live elapsed time and Running=true, so snapshots of in-flight
// queries render meaningfully.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	DurationUs int64             `json:"duration_us"`
	Running    bool              `json:"running,omitempty"`
	Done       int64             `json:"done,omitempty"`
	Total      int64             `json:"total,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanSnapshot   `json:"children,omitempty"`
}

// Snapshot captures the recorder's current state. Nil-safe (returns an
// empty snapshot).
func (r *Recorder) Snapshot() Snapshot {
	o := r.owner()
	if o == nil {
		return Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	}
	snap := Snapshot{Histograms: o.HistogramSnapshots()}
	snap.Counters, snap.Gauges = o.values()
	o.mu.Lock()
	for _, c := range o.root.children {
		snap.Spans = append(snap.Spans, snapshotSpanLocked(c))
	}
	o.mu.Unlock()
	return snap
}

func snapshotSpanLocked(s *Span) *SpanSnapshot {
	d := s.duration
	if !s.ended {
		d = time.Since(s.start)
	}
	out := &SpanSnapshot{Name: s.name, DurationUs: d.Microseconds(), Running: !s.ended}
	out.Done, out.Total = s.done.Load(), s.total.Load()
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, snapshotSpanLocked(c))
	}
	return out
}

// Snapshot captures this span and its subtree as a SpanSnapshot.
// Callers holding a span handle (e.g. the query span) use it to
// extract that query's phase durations without walking the whole
// recorder. Nil-safe (returns nil).
func (s *Span) Snapshot() *SpanSnapshot {
	if s == nil {
		return nil
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return snapshotSpanLocked(s)
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes every counter and gauge in the Prometheus
// text exposition format, prefixed "awra_", followed by the labeled
// histogram families (one # HELP/# TYPE header per family, label values
// escaped per the exposition spec). Nil-safe (writes nothing).
func (r *Recorder) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for _, name := range sortedNames(snap.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE awra_%s counter\nawra_%s %d\n", name, name, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(snap.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE awra_%s gauge\nawra_%s %d\n", name, name, snap.Gauges[name]); err != nil {
			return err
		}
	}
	return writeHistogramFamilies(w, snap.Histograms)
}

// histogramHelp documents the standard histogram families in exports.
var histogramHelp = map[string]string{
	HQueryLatencyUs: "End-to-end query latency in microseconds.",
	HPhaseLatencyUs: "Per-phase query latency in microseconds.",
	HRowsPerSec:     "Query scan throughput in fact records per second.",
}

// writeHistogramFamilies renders histograms in the Prometheus text
// exposition format: cumulative _bucket series ending at le="+Inf",
// plus _sum and _count, with one HELP/TYPE header per family. Only
// non-empty buckets are written — cumulative counts stay spec-valid
// under any bucket subset as long as +Inf is present.
func writeHistogramFamilies(w io.Writer, hists []HistogramSnapshot) error {
	lastName := ""
	for _, h := range hists {
		if h.Name != lastName {
			help := histogramHelp[h.Name]
			if help == "" {
				help = "Log-scale distribution."
			}
			if _, err := fmt.Fprintf(w, "# HELP awra_%s %s\n# TYPE awra_%s histogram\n", h.Name, help, h.Name); err != nil {
				return err
			}
			lastName = h.Name
		}
		labels := formatLabels(h.Labels)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "awra_%s_bucket{%sle=\"%d\"} %d\n", h.Name, labels, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "awra_%s_bucket{%sle=\"+Inf\"} %d\n", h.Name, labels, h.Count); err != nil {
			return err
		}
		suffix := strings.TrimSuffix(labels, ",")
		if suffix != "" {
			suffix = "{" + suffix + "}"
		}
		if _, err := fmt.Fprintf(w, "awra_%s_sum%s %d\nawra_%s_count%s %d\n", h.Name, suffix, h.Sum, h.Name, suffix, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// formatLabels renders a label map as `k="v",` pairs (trailing comma)
// in sorted key order, ready to precede the le label.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, escapeLabel(labels[k]))
	}
	return b.String()
}

// escapeLabel escapes a Prometheus label value per the text exposition
// spec: backslash, double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// FormatTree renders the span tree with durations and per-phase
// percentages of the parent span, one span per line:
//
//	query                      41.2ms
//	  optimize                  1.1ms   2.7%
//	  sort                     12.9ms  31.3%
//	    runs                    9.0ms  69.8%
//	    merge                   3.6ms  27.9%
//	  scan                     26.8ms  65.0%
//
// Nil-safe (returns "").
func (r *Recorder) FormatTree() string {
	o := r.owner()
	if o == nil {
		return ""
	}
	var b strings.Builder
	o.mu.Lock()
	for _, c := range o.root.children {
		formatSpanLocked(&b, c, 0, 0)
	}
	o.mu.Unlock()
	return b.String()
}

func formatSpanLocked(b *strings.Builder, s *Span, depth int, parent time.Duration) {
	d := s.duration
	if !s.ended {
		d = time.Since(s.start)
	}
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%-*s %9s", 28, indent+s.name, fmtDuration(d))
	if parent > 0 {
		fmt.Fprintf(b, " %5.1f%%", 100*float64(d)/float64(parent))
	}
	if !s.ended {
		b.WriteString(" (running)")
		if done, total := s.done.Load(), s.total.Load(); total > 0 {
			fmt.Fprintf(b, " %d/%d", done, total)
		}
	}
	for _, a := range s.attrs {
		fmt.Fprintf(b, "  %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, c := range s.children {
		formatSpanLocked(b, c, depth+1, d)
	}
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
