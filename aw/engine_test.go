package aw

import (
	"errors"
	"testing"
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

// TestParseEngineAliasesAndDefault: "" is the default engine, and the
// retired spellings "scan", "db" and "partscan" are unknown names.
func TestParseEngineAliasesAndDefault(t *testing.T) {
	if got, err := ParseEngine(""); err != nil || got != EngineSortScan {
		t.Errorf("ParseEngine(\"\") = %v, %v; want %v", got, err, EngineSortScan)
	}
	for _, name := range []string{"scan", "db", "partscan"} {
		_, err := ParseEngine(name)
		var ue *UnknownEngineError
		if !errors.As(err, &ue) || ue.Name != name {
			t.Errorf("ParseEngine(%q) error = %v, want *UnknownEngineError", name, err)
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

// TestExecOptionsValidate: the batch entry-point validation rejects
// negative counts and budgets and accepts the rest.
func TestExecOptionsValidate(t *testing.T) {
	for _, bad := range []ExecOptions{
		{Parallelism: -2},
		{MemoryBudget: -1},
		{MaxLiveCells: -5},
		{MaxResultRows: -1},
		{MaxSpillBytes: -1},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("validate accepted %+v", bad)
		}
	}
	for _, good := range []ExecOptions{{}, {Parallelism: 4, MemoryBudget: 1 << 20}} {
		if err := good.validate(); err != nil {
			t.Errorf("validate rejected %+v: %v", good, err)
		}
	}
}
