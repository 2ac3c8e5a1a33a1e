package stats

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"awra/internal/exec/scan"
	"awra/internal/model"
	"awra/internal/qguard"
	"awra/internal/storage"
)

// mem is the in-memory input of recs, each with nd dimensions and no
// measures.
func mem(t *testing.T, recs []model.Record, nd int) scan.Input {
	t.Helper()
	in, err := scan.RecordsInput(recs, nd, 0)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func recordsWithCards(n int, cards []int64, seed int64) []model.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]model.Record, n)
	for i := range recs {
		dims := make([]int64, len(cards))
		for d, c := range cards {
			dims[d] = rng.Int63n(c)
		}
		recs[i] = model.Record{Dims: dims, Ms: []float64{}}
	}
	return recs
}

func TestDistinctEstimates(t *testing.T) {
	cards := []int64{10, 1000, 30000}
	recs := recordsWithCards(200000, cards, 1)
	st, err := Collect(mem(t, recs, 3), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 200000 {
		t.Fatalf("records = %d", st.Records)
	}
	for d, c := range cards {
		got := st.Dims[d].Distinct
		want := float64(c)
		if math.Abs(got-want) > 0.1*want+2 {
			t.Errorf("dim %d: distinct = %.0f, want ~%d", d, got, c)
		}
		if st.Dims[d].Saturated {
			t.Errorf("dim %d unexpectedly saturated", d)
		}
	}
	if st.Dims[0].Min != 0 || st.Dims[0].Max != 9 {
		t.Errorf("dim 0 range = [%d,%d]", st.Dims[0].Min, st.Dims[0].Max)
	}
}

func TestBeyondBitmapStillAccurate(t *testing.T) {
	// Linear counting stays usable past the bitmap size: 300k distinct
	// values against a 64k-bit map should estimate within ~15%.
	recs := make([]model.Record, 300000)
	for i := range recs {
		recs[i] = model.Record{Dims: []int64{int64(i)}, Ms: []float64{}}
	}
	st, err := Collect(mem(t, recs, 1), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := st.Dims[0].Distinct
	if math.Abs(got-300000) > 45000 {
		t.Errorf("distinct = %.0f, want ~300000", got)
	}
}

func TestSaturationCeiling(t *testing.T) {
	n, sat := estimateFromZeros(0)
	if !sat {
		t.Error("zero free bits not reported as saturated")
	}
	if n < bitmapBits {
		t.Errorf("ceiling %.0f below bitmap size", n)
	}
	n, sat = estimateFromZeros(bitmapBits)
	if sat || n != 1 {
		t.Errorf("empty bitmap estimate = %v sat=%v", n, sat)
	}
}

func TestSampleLimit(t *testing.T) {
	recs := recordsWithCards(10000, []int64{100}, 2)
	st, err := Collect(mem(t, recs, 1), nil, Options{SampleLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 500 {
		t.Fatalf("sampled %d records", st.Records)
	}
}

func TestEmptyAndErrors(t *testing.T) {
	st, err := Collect(mem(t, nil, 2), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range st.Dims {
		if d.Distinct != 1 {
			t.Errorf("empty input distinct = %v", d.Distinct)
		}
	}
	if _, err := Collect(mem(t, nil, 0), nil, Options{}); err == nil {
		t.Error("zero dims accepted")
	}
}

func TestCollectFileAndPlanStats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.rec")
	recs := recordsWithCards(5000, []int64{50, 500}, 3)
	if err := storage.WriteAll(path, 2, 0, recs); err != nil {
		t.Fatal(err)
	}
	st, err := Collect(scan.FileInput(path), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := st.PlanStats()
	if len(ps.BaseCard) != 2 {
		t.Fatalf("plan stats dims = %d", len(ps.BaseCard))
	}
	if math.Abs(ps.BaseCard[0]-50) > 7 {
		t.Errorf("plan stats card = %v", ps.BaseCard[0])
	}
	if _, err := Collect(scan.FileInput(filepath.Join(dir, "none.rec")), nil, Options{}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCollectUnderGuard: the sampler reads under the query's guard. A
// corrupt row fails a strict read, is skipped and counted in degraded
// mode, and a canceled query stops the scan.
func TestCollectUnderGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.rec")
	if err := storage.WriteAll(path, 2, 0, recordsWithCards(3000, []int64{50, 500}, 4)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[32+100*20] ^= 0xFF // past the 32-byte header, record 100 of 20-byte rows
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(scan.FileInput(path), nil, Options{}); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("strict read: got %v, want ErrCorrupt", err)
	}
	g := qguard.New(context.Background(), qguard.Limits{SkipCorruptRows: true})
	st, err := Collect(scan.FileInput(path), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2999 || g.CorruptRows() != 1 {
		t.Fatalf("degraded read: %d records, %d corrupt skipped; want 2999 and 1", st.Records, g.CorruptRows())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(scan.FileInput(path), qguard.New(ctx, qguard.Limits{}), Options{}); !errors.Is(err, qguard.ErrCanceled) {
		t.Fatalf("canceled: got %v, want ErrCanceled", err)
	}
}

func TestMixDistribution(t *testing.T) {
	// Sanity: sequential integers must spread across the bitmap.
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[mix64(uint64(i))&(bitmapBits-1)] = true
	}
	if len(seen) < 950 {
		t.Errorf("mix64 collides too much: %d distinct slots of 1000", len(seen))
	}
}
