package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fire.json")
	b, err := json.MarshalIndent(Fire(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := Fire()
	if *back != *orig {
		t.Errorf("spec did not round-trip:\n%+v\n%+v", back, orig)
	}
}

func TestLoadSpecErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(garbled); err == nil {
		t.Error("garbled file accepted")
	}
	// Valid JSON, invalid spec.
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"Name":"x","Nodes":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(invalid); err == nil {
		t.Error("invalid spec accepted")
	}
}
