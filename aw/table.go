package aw

import (
	"sort"

	"awra/internal/agg"
)

// Row is a decoded result row: a formatted region plus its value.
type Row struct {
	Key   Key
	Label string
	Value float64
}

// TopK returns the k rows of a table with the largest values (NULLs
// excluded), ties broken by key order. k <= 0 returns all non-NULL
// rows sorted descending.
func TopK(t *Table, k int) []Row {
	rows := make([]Row, 0, len(t.Rows))
	for key, v := range t.Rows {
		if agg.IsNull(v) {
			continue
		}
		rows = append(rows, Row{Key: key, Value: v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value > rows[j].Value
		}
		return rows[i].Key < rows[j].Key
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	for i := range rows {
		rows[i].Label = t.Codec.Format(rows[i].Key)
	}
	return rows
}
