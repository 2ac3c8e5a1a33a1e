package scan

import (
	"testing"

	"awra/internal/model"
)

// TestCodeColsMatchUp: Load fills each column with exactly what
// Dimension.Up gives row by row — for a level-0 pair, a generalized
// pair, and a pair two measures add — over two batches, the second
// shorter than the first, and a pair added twice is one column.
func TestCodeColsMatchUp(t *testing.T) {
	dims := []*model.Dimension{
		model.FixedFanout("A", 4, 3),
		model.FixedFanout("B", 4, 3),
	}
	s, err := model.NewSchema(dims, "m")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	cc := NewCodeCols(s, rows)
	pairs := []model.SortPart{{Dim: 0, Lvl: 0}, {Dim: 1, Lvl: 2}, {Dim: 0, Lvl: 1}}
	for i, p := range pairs {
		if got := cc.Add(p.Dim, p.Lvl); got != i {
			t.Fatalf("pair %v added as column %d, want %d", p, got, i)
		}
	}
	// A second measure keying on (A, 1) shares its column.
	if got := cc.Add(0, 1); got != 2 || cc.Len() != len(pairs) {
		t.Fatalf("shared pair: column %d of %d, want 2 of %d", got, cc.Len(), len(pairs))
	}

	recs := randRecords(rows+rows/2, 2, 1, 37)
	const rowBytes = 3 * 8
	views := make([]Record, len(recs))
	for i := range recs {
		views[i] = EncodeRow(make([]byte, rowBytes), &recs[i])
	}
	for _, batch := range [][]Record{views[:rows], views[rows:]} {
		cc.Load(batch)
		for i, p := range pairs {
			col := cc.Col(i)
			for r, row := range batch {
				if want := dims[p.Dim].Up(0, p.Lvl, row.Dim(p.Dim)); col[r] != want {
					t.Fatalf("pair %v, batch of %d, row %d: code %d, want %d", p, len(batch), r, col[r], want)
				}
			}
		}
	}
}
