package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndAttrs(t *testing.T) {
	r := New()
	q := r.Start(SpanQuery)
	q.SetAttr("engine", "sortscan")
	sub := r.At(q)
	s := sub.Start(SpanSort)
	s.SetAttr("runs", "3")
	s.SetAttr("runs", "4") // last write wins
	s.End()
	sc := sub.Start(SpanScan)
	sc.End()
	q.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(snap.Spans))
	}
	root := snap.Spans[0]
	if root.Name != SpanQuery {
		t.Fatalf("root span = %q, want %q", root.Name, SpanQuery)
	}
	if root.Attrs["engine"] != "sortscan" {
		t.Fatalf("root attrs = %v", root.Attrs)
	}
	if len(root.Children) != 2 {
		t.Fatalf("want 2 children under query, got %d", len(root.Children))
	}
	if root.Children[0].Name != SpanSort || root.Children[1].Name != SpanScan {
		t.Fatalf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	if root.Children[0].Attrs["runs"] != "4" {
		t.Fatalf("attr overwrite failed: %v", root.Children[0].Attrs)
	}
}

func TestSpanDurations(t *testing.T) {
	r := New()
	s := r.Start("work")
	time.Sleep(2 * time.Millisecond)
	s.End()
	d := s.Duration()
	if d < time.Millisecond {
		t.Fatalf("span duration %v implausibly short", d)
	}
	s.End() // idempotent
	if got := s.Duration(); got != d {
		t.Fatalf("second End changed duration: %v != %v", got, d)
	}
	// A live (un-ended) span reports running time.
	live := r.Start("live")
	time.Sleep(time.Millisecond)
	if live.Duration() <= 0 {
		t.Fatal("live span should report positive elapsed time")
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("x")
	c.Add(3)
	c.Add(0) // no-op by contract
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	g := r.Gauge("y")
	g.Set(10)
	g.SetMax(5) // lower: ignored
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.SetMax(20)
	if got := g.Value(); got != 20 {
		t.Fatalf("gauge = %d, want 20", got)
	}
	// Same name returns the same instrument.
	if r.Counter("x") != c {
		t.Fatal("Counter lookup not stable")
	}
}

func TestCounterConcurrency(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("hwm")
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.SetMax(int64(w*perWorker + i))
			}
			s := r.Start("worker")
			s.SetAttr("w", "x")
			s.End()
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("hwm").Value(); got != workers*perWorker-1 {
		t.Fatalf("hwm = %d, want %d", got, workers*perWorker-1)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	s := r.Start("anything") // nil span
	s.SetAttr("k", "v")
	s.End()
	if s.Duration() != 0 || s.Name() != "" {
		t.Fatal("nil span should be inert")
	}
	r.Counter("c").Add(5)
	r.Gauge("g").SetMax(5)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Fatal("nil instruments should read zero")
	}
	if r.At(s) != nil {
		t.Fatal("nil.At should stay nil")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Spans) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	if r.FormatTree() != "" {
		t.Fatal("nil FormatTree should be empty")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WritePrometheus wrote %q (err %v)", sb.String(), err)
	}
}

func TestAtSharesRegistry(t *testing.T) {
	r := New()
	q := r.Start(SpanQuery)
	view := r.At(q)
	view.Counter("shared").Add(2)
	r.Counter("shared").Add(3)
	if got := r.Counter("shared").Value(); got != 5 {
		t.Fatalf("shared counter = %d, want 5", got)
	}
	// Spans started on the view nest under q.
	view.Start("child").End()
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != 1 {
		t.Fatalf("span nesting through At broken: %+v", snap.Spans)
	}
	// At on a view still resolves the owning recorder.
	deeper := view.At(view.Start("grand"))
	deeper.Counter("shared").Add(1)
	if got := r.Counter("shared").Value(); got != 6 {
		t.Fatalf("nested view counter = %d, want 6", got)
	}
}

func TestSnapshotJSONAndPrometheus(t *testing.T) {
	r := New()
	r.Counter(MRecordsScanned).Add(10)
	r.Gauge(GLiveCellsHWM).SetMax(4)
	r.Start(SpanScan).End()

	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal([]byte(b.String()), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters[MRecordsScanned] != 10 || round.Gauges[GLiveCellsHWM] != 4 {
		t.Fatalf("round-tripped snapshot = %+v", round)
	}
	if len(round.Spans) != 1 || round.Spans[0].Name != SpanScan {
		t.Fatalf("round-tripped spans = %+v", round.Spans)
	}

	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE awra_records_scanned counter",
		"awra_records_scanned 10",
		"# TYPE awra_live_cells_hwm gauge",
		"awra_live_cells_hwm 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTree(t *testing.T) {
	r := New()
	q := r.Start(SpanQuery)
	r.At(q).Start(SpanSort).End()
	q.End()
	tree := r.FormatTree()
	if !strings.Contains(tree, SpanQuery) || !strings.Contains(tree, SpanSort) {
		t.Fatalf("tree missing spans:\n%s", tree)
	}
	if !strings.Contains(tree, "%") {
		t.Fatalf("tree missing parent percentage:\n%s", tree)
	}
	qLine := strings.Index(tree, SpanQuery)
	sLine := strings.Index(tree, SpanSort)
	if qLine > sLine {
		t.Fatalf("child printed before parent:\n%s", tree)
	}
}

// BenchmarkNilCounterAdd documents that the nil-recorder path costs a
// pointer check, keeping un-instrumented hot loops free.
func BenchmarkNilCounterAdd(b *testing.B) {
	var r *Recorder
	c := r.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
