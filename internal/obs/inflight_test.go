package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestInflightLifecycle(t *testing.T) {
	reg := &Inflight{}
	r := New()
	span := r.Start(SpanQuery)
	span.SetAttr("trace_id", "abc")
	q := reg.Begin("test query", span)
	if q.ID() == 0 {
		t.Fatal("want nonzero query ID")
	}
	// The engine resolves after registration; the snapshot reads it off
	// the span.
	span.SetAttr("engine", "sortscan")

	scan := r.At(span).Start(SpanScan)
	scan.SetTotal(1000)
	scan.SetDone(250)

	snaps := reg.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("want 1 in-flight query, got %d", len(snaps))
	}
	s := snaps[0]
	if s.Label != "test query" || s.Engine != "sortscan" {
		t.Errorf("label/engine: %+v", s)
	}
	if s.TraceID != "abc" || s.TracePath != "/debug/aw/traces/abc" {
		t.Errorf("trace link: id=%q path=%q", s.TraceID, s.TracePath)
	}
	if s.ElapsedUs <= 0 {
		t.Errorf("elapsed: %d", s.ElapsedUs)
	}
	if s.Phase != SpanScan {
		t.Errorf("phase should be the deepest running span, got %q", s.Phase)
	}
	if s.Done != 250 || s.Total != 1000 || s.Progress != 0.25 {
		t.Errorf("progress: done=%d total=%d p=%v", s.Done, s.Total, s.Progress)
	}

	// Progress is monotonically non-decreasing even if the denominator
	// grows (a second work span appears).
	scan2 := r.At(span).Start(SpanScan)
	scan2.SetTotal(9000)
	s2 := reg.Snapshot()[0]
	if s2.Progress < s.Progress {
		t.Errorf("progress went backwards: %v -> %v", s.Progress, s2.Progress)
	}

	scan.End()
	scan2.End()
	span.End()
	q.Finish()
	q.Finish() // idempotent
	if got := reg.Snapshot(); len(got) != 0 {
		t.Fatalf("finished query still listed: %+v", got)
	}
}

func TestInflightNilSafety(t *testing.T) {
	var reg *Inflight
	q := reg.Begin("x", nil)
	q.Finish()
	if q.ID() != 0 {
		t.Fatal("nil registry handle should have ID 0")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
}

func TestWorkerProgressNames(t *testing.T) {
	reg := &Inflight{}
	r := New()
	span := r.Start(SpanQuery)
	q := reg.Begin("sharded", span)
	defer q.Finish()
	for i := 0; i < 2; i++ {
		sh := r.At(span).Start(SpanShard)
		sh.SetAttr("shard", string(rune('0'+i)))
		sc := r.At(sh).Start(SpanScan)
		sc.SetTotal(100)
		sc.SetDone(int64(10 * (i + 1)))
	}
	s := reg.Snapshot()[0]
	if len(s.Workers) != 2 {
		t.Fatalf("want 2 workers, got %+v", s.Workers)
	}
	if s.Workers[0].Name != "shard:0" && s.Workers[1].Name != "shard:0" {
		t.Errorf("worker names should carry shard attrs: %+v", s.Workers)
	}
	if s.Done != 30 || s.Total != 200 {
		t.Errorf("summed progress: done=%d total=%d", s.Done, s.Total)
	}
}

func TestRunningSpanRendering(t *testing.T) {
	r := New()
	q := r.Start(SpanQuery)
	scan := r.At(q).Start(SpanScan)
	scan.SetTotal(100)
	scan.SetDone(40)

	tree := r.FormatTree()
	if !strings.Contains(tree, "(running)") {
		t.Errorf("FormatTree should mark un-ended spans:\n%s", tree)
	}
	if !strings.Contains(tree, "40/100") {
		t.Errorf("FormatTree should show progress on running spans:\n%s", tree)
	}

	snap := r.Snapshot()
	root := snap.Spans[0]
	if !root.Running || root.DurationUs <= 0 {
		t.Errorf("running span snapshot: running=%v dur=%d", root.Running, root.DurationUs)
	}
	if root.Children[0].Done != 40 || root.Children[0].Total != 100 {
		t.Errorf("span snapshot progress: %+v", root.Children[0])
	}

	scan.End()
	q.End()
	tree = r.FormatTree()
	if strings.Contains(tree, "(running)") {
		t.Errorf("ended spans must not be marked running:\n%s", tree)
	}
	if s := r.Snapshot().Spans[0]; s.Running {
		t.Errorf("ended span snapshot still running")
	}
}

// TestInflightSnapshotWhilePublishing races registry snapshots against
// span progress and attribute updates — run with -race.
func TestInflightSnapshotWhilePublishing(t *testing.T) {
	reg := &Inflight{}
	r := New()
	span := r.Start(SpanQuery)
	q := reg.Begin("stress", span)
	defer q.Finish()
	scan := r.At(span).Start(SpanScan)
	scan.SetTotal(10000)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= 10000; i++ {
			if i&255 == 0 {
				scan.SetDone(i)
				scan.SetAttr("records", strconv.FormatInt(i, 10))
			}
		}
		scan.End()
	}()
	var prev float64
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			snaps := reg.Snapshot()
			if len(snaps) != 1 {
				t.Errorf("query missing mid-run")
				return
			}
			if snaps[0].Progress < prev {
				t.Errorf("progress regressed: %v -> %v", prev, snaps[0].Progress)
				return
			}
			prev = snaps[0].Progress
		}
	}()
	wg.Wait()
}
