package suite

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("fresh journal has %d cells", j.Len())
	}
	run := BenchmarkRun{
		Measurement: core.Measurement{Benchmark: "HPL", Metric: "GFLOPS",
			Performance: 13.7, Power: 297, Time: 516, Energy: 153885},
		PeakPower: 299.4,
		Samples:   518,
	}
	key := CellKey("testbed", 4, "cyclic", "HPL")
	if err := j.Record(key, run); err != nil {
		t.Fatal(err)
	}
	// A second journal process (the resumed sweep) sees the cell.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := j2.Lookup(key)
	if !ok {
		t.Fatal("recorded cell not found after reopen")
	}
	if got != run {
		t.Errorf("round trip mangled run:\n%+v\n%+v", got, run)
	}
	if _, ok := j2.Lookup(CellKey("testbed", 8, "cyclic", "HPL")); ok {
		t.Error("lookup matched a different cell")
	}
	if err := j2.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("Remove left the journal behind")
	}
	// Removing an already-removed journal is fine.
	if err := j2.Remove(); err != nil {
		t.Errorf("double remove: %v", err)
	}
}

func TestJournalFailedRunsAreCheckpointedToo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _ := OpenJournal(path)
	failed := BenchmarkRun{
		Measurement: core.Measurement{Benchmark: "STREAM", Metric: "MBPS"},
		Status:      StatusFailed,
		Retries:     2,
		Error:       "node 1 crashed at t=50s of 816s",
		WastedTime:  150,
	}
	key := CellKey("testbed", 4, "cyclic", "STREAM")
	if err := j.Record(key, failed); err != nil {
		t.Fatal(err)
	}
	j2, _ := OpenJournal(path)
	got, ok := j2.Lookup(key)
	if !ok || got.Status != StatusFailed || got.Error != failed.Error {
		t.Errorf("failed run did not survive the journal: %+v", got)
	}
}

func TestJournalTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _ := OpenJournal(path)
	key := CellKey("testbed", 4, "cyclic", "HPL")
	tr := CellTrace{
		Spans: []obs.Span{{Track: "HPL", Name: "attempt 1", Start: 10, End: 30,
			Attrs: []obs.Attr{obs.Str("outcome", "ok")}}},
		Events: []obs.Event{{Track: "HPL", Name: "fault: straggler", At: 12}},
	}
	j.SetTrace(key, tr)
	if err := j.Record(key, BenchmarkRun{Samples: 3}); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := j2.LookupTrace(key)
	if !ok {
		t.Fatal("trace not found after reopen")
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("trace round trip mangled:\n%+v\n%+v", got, tr)
	}
	if _, ok := j2.LookupTrace(CellKey("testbed", 8, "cyclic", "HPL")); ok {
		t.Error("LookupTrace matched a different cell")
	}
	// An empty trace is not staged at all.
	j2.SetTrace(CellKey("testbed", 8, "cyclic", "HPL"), CellTrace{})
	if _, ok := j2.LookupTrace(CellKey("testbed", 8, "cyclic", "HPL")); ok {
		t.Error("empty trace was staged")
	}
}

// TestJournalRejectsOtherLayouts: journals are transient resume state,
// so OpenJournal reads only the current layout and tells the user to
// delete anything else instead of migrating it.
func TestJournalRejectsOtherLayouts(t *testing.T) {
	const cell = `{"measurement": {"benchmark": "HPL", "metric": "GFLOPS"}, "peak_power": 0, "samples": 7}`
	for _, tc := range []struct{ name, body string }{
		{"v1 bare map", `{"testbed|4|cyclic|HPL": ` + cell + `}`},
		{"v2", `{"cells": {"testbed|4|cyclic|HPL": ` + cell + `}, "traces": {"testbed|4|cyclic|HPL": {"spans": [{"track": "HPL", "name": "HPL", "start": 10, "end": 30}]}}}`},
		{"v3", `{"version": 3, "benchmarks": ["HPL"], "cells": {"testbed|4|cyclic|HPL": ` + cell + `}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.journal")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenJournal(path)
			if err == nil {
				t.Fatal("old journal layout opened")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "delete it") {
				t.Errorf("error does not name the file and say to delete it: %v", err)
			}
		})
	}
}

func TestJournalCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Error("corrupt journal opened")
	} else if !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "delete it") {
		t.Errorf("unhelpful corrupt-journal error: %v", err)
	}
}

func TestJournalNoTempFileResidue(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(filepath.Join(dir, "sweep.journal"))
	for i := 0; i < 5; i++ {
		key := CellKey("testbed", i, "cyclic", "HPL")
		if err := j.Record(key, BenchmarkRun{Samples: i}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.journal" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only sweep.journal", names)
	}
}
