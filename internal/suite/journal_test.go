package suite

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/units"
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

// Mirrors of the journal's trace types with each attribute as the two
// strings numbers used to be formatted into: the layout traceSet's
// hand-written encoding must reproduce through encoding/json.
type (
	refAttr struct {
		Key   string `json:"k"`
		Value string `json:"v"`
	}
	refSpan struct {
		Track string        `json:"track"`
		Name  string        `json:"name"`
		Start units.Seconds `json:"start"`
		End   units.Seconds `json:"end"`
		Attrs []refAttr     `json:"attrs,omitempty"`
	}
	refEvent struct {
		Track string        `json:"track"`
		Name  string        `json:"name"`
		At    units.Seconds `json:"at"`
		Attrs []refAttr     `json:"attrs,omitempty"`
	}
	refTrace struct {
		Spans  []refSpan      `json:"spans,omitempty"`
		Events []refEvent     `json:"events,omitempty"`
		Ops    []obs.MetricOp `json:"ops,omitempty"`
		End    units.Seconds  `json:"end,omitempty"`
	}
	refJournal struct {
		Version    int                     `json:"version"`
		Benchmarks []string                `json:"benchmarks,omitempty"`
		Cells      map[string]BenchmarkRun `json:"cells"`
		Traces     map[string]refTrace     `json:"traces,omitempty"`
	}
)

func refAttrs(attrs []obs.Attr) []refAttr {
	var out []refAttr
	for _, a := range attrs {
		out = append(out, refAttr{a.Key, a.Text()})
	}
	return out
}

// TestJournalTracesMatchEncodingJSON flushes traces with every kind of
// attribute, HTML and non-ASCII text, floats in both of encoding/json's
// forms, and empty fields, and compares the file with encoding/json's
// bytes for the string-attribute layout.
func TestJournalTracesMatchEncodingJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _ := OpenJournal(path)
	traces := map[string]CellTrace{
		CellKey("fire", 8, "cyclic", "HPL"): {
			Spans: []obs.Span{
				{Track: "HPL", Name: "attempt 1", Start: 1e-7, End: 2.5e21, Attrs: []obs.Attr{
					obs.Str("outcome", "<crashed> &   \"quoted\""), obs.Int("procs", 8), obs.Int64("engine_events", -1<<40),
					obs.F64("mean_watts", 297.7660026629467), obs.F64("zero", 0), obs.Secs("wasted", 80)}},
				{Track: "wätts", Name: "backoff", Start: 50, End: 80},
			},
			Events: []obs.Event{{Track: "HPL", Name: "fault: node crash", At: 50, Attrs: []obs.Attr{obs.F64("crash_at", math.Copysign(0, -1))}}},
			Ops:    []obs.MetricOp{{Kind: obs.OpCount, Name: "suite.attempts", Value: 1}, {Kind: obs.OpObserve, Name: "x<y", Value: 1.5e-9}},
			End:    654.219255828,
		},
		CellKey("fire", 16, "cyclic", "STREAM"): {Ops: []obs.MetricOp{{Kind: obs.OpGauge, Name: "g", Value: 3}}},
		CellKey("fire", 16, "cyclic", "HPL"):    {Events: []obs.Event{{Track: "HPL", Name: "e", At: 0}}, End: 1},
	}
	ref := refJournal{Version: journalVersion, Cells: map[string]BenchmarkRun{}, Traces: map[string]refTrace{}}
	for key, tr := range traces {
		j.SetTrace(key, tr)
		if err := j.Record(key, BenchmarkRun{Samples: 3}); err != nil {
			t.Fatal(err)
		}
		ref.Cells[key] = BenchmarkRun{Samples: 3}
		rt := refTrace{Ops: tr.Ops, End: tr.End}
		for _, s := range tr.Spans {
			rt.Spans = append(rt.Spans, refSpan{s.Track, s.Name, s.Start, s.End, refAttrs(s.Attrs)})
		}
		for _, e := range tr.Events {
			rt.Events = append(rt.Events, refEvent{e.Track, e.Name, e.At, refAttrs(e.Attrs)})
		}
		ref.Traces[key] = rt
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Errorf("journal differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	// A NaN time is refused, as encoding/json refuses it.
	j.SetTrace("nan", CellTrace{Spans: []obs.Span{{Track: "t", Name: "s", End: units.Seconds(math.NaN())}}})
	if err := j.Record("nan", BenchmarkRun{}); err == nil {
		t.Error("a NaN span end was journaled")
	}
}
