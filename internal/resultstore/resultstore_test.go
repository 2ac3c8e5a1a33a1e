package resultstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awra/internal/agg"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/exec/singlescan"
	"awra/internal/gen"
	"awra/internal/model"
)

func computedTables(t *testing.T) (*model.Schema, map[string]*core.Table) {
	t.Helper()
	s, recs, err := gen.SynthRecords(2000, gen.SynthConfig{Dims: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	all := model.LevelALL
	c, err := core.NewWorkflow(s).
		Basic("cnt", model.Gran{1, 1}, agg.Count, -1).
		Basic("withNull", model.Gran{2, all}, agg.Min, 0,
			core.Where(core.MWhere(0, core.Gt, 1e9))). // empty -> no rows
		Rollup("per/top", model.Gran{2, all}, "cnt", agg.Sum).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	in, err := scan.RecordsInput(recs, s.NumDims(), s.NumMeasures())
	if err != nil {
		t.Fatal(err)
	}
	res, err := singlescan.Run(c, in, singlescan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, res.Tables
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, tables := computedTables(t)
	dir := filepath.Join(t.TempDir(), "results")
	if err := Save(dir, s, tables); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(tables) {
		t.Fatalf("loaded %d measures, want %d", len(loaded), len(tables))
	}
	for name, want := range tables {
		got, ok := loaded[name]
		if !ok {
			t.Fatalf("measure %q missing after load", name)
		}
		if !want.Equal(got, 0) {
			t.Fatalf("measure %q changed in round trip", name)
		}
		if !model.GranEq(want.Gran, got.Gran) {
			t.Fatalf("measure %q granularity changed", name)
		}
	}
}

func TestManifestValidation(t *testing.T) {
	s, tables := computedTables(t)
	dir := filepath.Join(t.TempDir(), "results")
	if err := Save(dir, s, tables); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Measures) != len(tables) || len(man.Dimensions) != 2 {
		t.Fatalf("manifest = %+v", man)
	}
	// Wrong schema: different dimension names.
	other, err := model.NewSchema([]*model.Dimension{
		model.FixedFanout("X", 3, 10),
		model.FixedFanout("Y", 3, 10),
	}, "m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, other); err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
	// Wrong dimensionality.
	one, err := model.NewSchema([]*model.Dimension{model.FixedFanout("A1", 3, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, one); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	s, tables := computedTables(t)
	dir := filepath.Join(t.TempDir(), "results")
	if err := Save(dir, s, tables); err != nil {
		t.Fatal(err)
	}
	// Corrupt manifest.
	manPath := filepath.Join(dir, manifestName)
	if err := os.WriteFile(manPath, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, s); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	// Missing manifest entirely.
	if _, err := Load(t.TempDir(), s); err == nil {
		t.Fatal("missing manifest accepted")
	}
	// Row-count mismatch (truncated file).
	if err := Save(dir, s, tables); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Measures[0].Rows += 5
	b, _ := os.ReadFile(manPath)
	_ = b
	if err := os.WriteFile(manPath, mustJSON(t, man), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, s); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
}

func mustJSON(t *testing.T, man *Manifest) []byte {
	t.Helper()
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSanitize(t *testing.T) {
	if got := sanitize("per/top m"); got != "per_top_m" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize("ok-name_1"); got != "ok-name_1" {
		t.Errorf("sanitize mangled a safe name: %q", got)
	}
}
