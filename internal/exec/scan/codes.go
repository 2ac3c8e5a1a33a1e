package scan

import "awra/internal/model"

// CodeCols is a batch of rows' dimension codes, generalized into
// columns: one column per distinct (dimension, level) pair its users
// added, row r's code under pair p at Col(p)[r]. A level several
// measures key on is generalized once per row, not once per measure,
// and a column at a time, so both scan engines' per-row work reads
// codes instead of computing them.
type CodeCols struct {
	schema *model.Schema
	rows   int // the most rows a Load takes
	parts  []model.SortPart
	cols   [][]int64
}

// NewCodeCols returns code columns, none added yet, for batches of at
// most rows rows.
func NewCodeCols(s *model.Schema, rows int) *CodeCols {
	return &CodeCols{schema: s, rows: rows}
}

// Add returns the column of dimension d's codes at level lvl, adding it
// on first use.
func (c *CodeCols) Add(d int, lvl model.Level) int {
	for i, p := range c.parts {
		if p.Dim == d && p.Lvl == lvl {
			return i
		}
	}
	c.parts = append(c.parts, model.SortPart{Dim: d, Lvl: lvl})
	c.cols = append(c.cols, make([]int64, c.rows))
	return len(c.parts) - 1
}

// Len returns the number of columns.
func (c *CodeCols) Len() int { return len(c.parts) }

// Col returns column i; entries past the last Load's rows are stale.
func (c *CodeCols) Col(i int) []int64 { return c.cols[i] }

// Load fills every column from rows, at most the rows the columns were
// made for: a column's base codes are copied out, then generalized in
// place.
func (c *CodeCols) Load(rows []Record) {
	for i, p := range c.parts {
		codes := c.cols[i][:len(rows)]
		for r, row := range rows {
			codes[r] = row.Dim(p.Dim)
		}
		if p.Lvl != 0 {
			dim := c.schema.Dim(p.Dim)
			for r, code := range codes {
				codes[r] = dim.Up(0, p.Lvl, code)
			}
		}
	}
}
