package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// runQuiet runs the benchmark for one second into a test directory and
// returns its result and printed lines.
func runQuiet(t *testing.T, workload string, seed int64, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{workload: workload, seed: seed, seconds: 1, trace: trace, out: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s seed %d trace %t: %v\n%s", workload, seed, trace, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %t: %d of %d ops failed\n%s", workload, seed, trace, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

// checkUnits checks that the result carries exactly the metrics of defs,
// each with its unit, and that every one was printed with its unit.
func checkUnits(t *testing.T, res *result, printed string, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit == "" || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want unit %q", d.Name, m, d.Unit)
			continue
		}
		if !strings.Contains(printed, fmt.Sprintf(" %s\n", d.Unit)) || !strings.Contains(printed, d.Name+" ") {
			t.Errorf("metric %s was not printed with its unit %s", d.Name, d.Unit)
		}
	}
}

// deterministicCounts are the per-layer counts two traced runs of the
// same seed must report exactly.
var deterministicCounts = []string{
	"sim.events", "power.samples", "series.gaps_filled", "suite.attempts",
	"journal.bytes_written", "obs.spans", "live.events_streamed",
}

func TestTracedCountsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, printed := runQuiet(t, w.Name, 7, true)
			b, _ := runQuiet(t, w.Name, 7, true)
			checkUnits(t, a, printed, perLayerMetrics)
			for _, name := range deterministicCounts {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

func TestTracedRunAttributesLayers(t *testing.T) {
	sweep, _ := runQuiet(t, "sweep", 3, true)
	for _, name := range []string{"journal.records", "series.repair_calls", "obs.spans"} {
		if v := sweep.Metrics[name].Value; v != 0 {
			t.Errorf("sweep: %s = %v, want 0", name, v)
		}
	}
	for workload, name := range map[string]string{
		"journaled": "journal.records",
		"faulty":    "series.repair_calls",
		"daemon":    "live.events_streamed",
	} {
		res, _ := runQuiet(t, workload, 3, true)
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s: %s = %v, want > 0", workload, name, v)
		}
	}
}

func TestEndToEndMetricsHaveUnits(t *testing.T) {
	res, printed := runQuiet(t, "sweep", 5, false)
	checkUnits(t, res, printed, endToEndMetrics)
	for _, d := range endToEndMetrics {
		if res.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w.Name, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w.Name, 11)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 gave two different inputs", w.Name)
		}
	}
	a, _ := makeInputs("faulty", 11)
	b, _ := makeInputs("faulty", 12)
	if fmt.Sprint(a.axis) == fmt.Sprint(b.axis) || a.plan.Seed == b.plan.Seed {
		t.Error("faulty: seeds 11 and 12 gave the same axis or fault-plan seed")
	}
}

func TestBenchmarkJSONIsCurrent(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with greenperf --write-benchmark-json BENCHMARK.json")
	}
}
