package aw

import (
	"errors"
	"testing"

	"awra/internal/exec/scan"
)

// TestEngineRoundTrip: every engine constant's String() form must parse
// back to the same constant, and the canonical name list must agree.
func TestEngineRoundTrip(t *testing.T) {
	names := EngineNames()
	if len(names) != len(engineNames) {
		t.Fatalf("EngineNames returned %d names, want %d", len(names), len(engineNames))
	}
	for i, name := range names {
		e := Engine(i)
		if e.String() != name {
			t.Errorf("Engine(%d).String() = %q, want %q", i, e.String(), name)
		}
		back, err := ParseEngine(name)
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", name, err)
		}
		if back != e {
			t.Errorf("ParseEngine(%q) = %v, want %v", name, back, e)
		}
	}
}

func TestParseEngineAliasesAndDefault(t *testing.T) {
	for name, want := range map[string]Engine{
		"":         EngineSortScan,
		"scan":     EngineSingleScan,
		"db":       EngineRelational,
		"partscan": EngineShardScan,
	} {
		got, err := ParseEngine(name)
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseEngine(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseEngineUnknown(t *testing.T) {
	_, err := ParseEngine("bogus")
	if err == nil {
		t.Fatal("unknown engine name accepted")
	}
	var ue *UnknownEngineError
	if !errors.As(err, &ue) {
		t.Fatalf("error type %T, want *UnknownEngineError", err)
	}
	if ue.Name != "bogus" {
		t.Errorf("UnknownEngineError.Name = %q", ue.Name)
	}
	if len(ue.Valid) != len(engineNames) {
		t.Errorf("UnknownEngineError.Valid lists %d names, want %d", len(ue.Valid), len(engineNames))
	}
}

// TestEngineStringOutOfRange: values outside the constant range print a
// diagnostic form rather than panicking or aliasing a real engine.
func TestEngineStringOutOfRange(t *testing.T) {
	if s := Engine(-1).String(); s != "Engine(-1)" {
		t.Errorf("Engine(-1).String() = %q", s)
	}
	if s := Engine(99).String(); s != "Engine(99)" {
		t.Errorf("Engine(99).String() = %q", s)
	}
}

// TestExecOptionsNormalize: the shared entry-point validation must
// reject negative knobs and clamp small read batches up to the scan
// reader's minimum.
func TestExecOptionsNormalize(t *testing.T) {
	for _, bad := range []ExecOptions{
		{ReadBatchSize: -1},
		{Parallelism: -2},
		{MemoryBudget: -1},
		{MaxLiveCells: -5},
		{MaxResultRows: -1},
		{MaxSpillBytes: -1},
	} {
		if _, err := bad.normalize(); err == nil {
			t.Errorf("normalize accepted %+v", bad)
		}
	}

	got, err := ExecOptions{ReadBatchSize: 1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.ReadBatchSize != scan.MinBatchBytes {
		t.Errorf("ReadBatchSize clamped to %d, want %d", got.ReadBatchSize, scan.MinBatchBytes)
	}

	got, err = ExecOptions{ReadBatchSize: scan.MinBatchBytes * 2, Parallelism: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.ReadBatchSize != scan.MinBatchBytes*2 || got.Parallelism != 4 {
		t.Errorf("valid options altered: %+v", got)
	}

	got, err = ExecOptions{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.ReadBatchSize != 0 {
		t.Errorf("zero ReadBatchSize rewritten to %d (engines apply their own default)", got.ReadBatchSize)
	}
}
