package enginetest

import (
	"context"
	"testing"

	"awra/aw"
)

// TestEnginesAgreeAcrossInputs: every engine, driven through the public
// API, answers the same generated records identically — eps 0 — from
// memory and from their file, and both answers are the reference
// evaluator's.
func TestEnginesAgreeAcrossInputs(t *testing.T) {
	g := NewGen(73, 2)
	c := obsWorkflow(t, g)
	recs := g.Records(3000)
	fact := writeFact(t, g, recs)
	want := runAlgebra(t, c, recs)
	for _, eng := range faultEngines() {
		t.Run(eng.name, func(t *testing.T) {
			o := eng.opts
			o.TempDir = t.TempDir()
			fromMem, err := aw.RunCompiled(context.Background(), c, aw.FromRecords(recs), o)
			if err != nil {
				t.Fatalf("in memory: %v", err)
			}
			fromFile, err := aw.RunCompiled(context.Background(), c, aw.FromFile(fact), o)
			if err != nil {
				t.Fatalf("from file: %v", err)
			}
			if !aw.ResultsEqual(fromMem, fromFile, 0) {
				t.Fatal("in-memory and file inputs answer differently")
			}
			if d := diffTables(want, fromFile, 1e-9); d != "" {
				t.Fatalf("vs algebra: %s", d)
			}
		})
	}
}
