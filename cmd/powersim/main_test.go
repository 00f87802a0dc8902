package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/suite"
)

// opts builds the default option set the old positional tests used.
func opts(system string, procs int, bench string, interval float64, seed uint64) options {
	return options{system: system, procs: procs, bench: bench, interval: interval, seed: seed}
}

func TestRunAllBenchmarks(t *testing.T) {
	for _, bench := range []string{"hpl", "stream", "iozone"} {
		var sb, errb strings.Builder
		if err := run(opts("testbed", 4, bench, 1, 1), &sb, &errb); err != nil {
			t.Errorf("%s: %v", bench, err)
			continue
		}
		out := sb.String()
		if !strings.HasPrefix(out, "seconds,watts\n") {
			t.Errorf("%s: missing CSV header", bench)
		}
		lines := strings.Count(out, "\n")
		if lines < 3 {
			t.Errorf("%s: only %d lines", bench, lines)
		}
		if !strings.Contains(errb.String(), "powersim:") {
			t.Errorf("%s: summary missing from stderr", bench)
		}
	}
}

// TestRunEveryWorkloadOnEverySystem: every registered workload meters on
// every built-in machine at its full core count, titled by the workload's
// canonical name.
func TestRunEveryWorkloadOnEverySystem(t *testing.T) {
	for _, system := range cluster.Names() {
		for _, name := range bench.Names() {
			var sb, errb strings.Builder
			if err := run(opts(system, 0, name, 60, 1), &sb, &errb); err != nil {
				t.Errorf("%s on %s: %v", name, system, err)
				continue
			}
			if !strings.HasPrefix(sb.String(), "seconds,watts\n") || strings.Count(sb.String(), "\n") < 3 {
				t.Errorf("%s on %s: short CSV stream:\n%s", name, system, sb.String())
			}
			if !strings.Contains(errb.String(), "powersim: "+name+" on ") {
				t.Errorf("%s on %s: summary not titled by the workload:\n%s", name, system, errb.String())
			}
		}
	}
}

// TestIOzoneMatchesSuiteMeasurement: powersim meters the run the suite
// meters. Under the suite's meter seed for the process count, the summary's
// seconds and energy equal the suite's IOzone measurement exactly.
func TestIOzoneMatchesSuiteMeasurement(t *testing.T) {
	for _, c := range []struct {
		system string
		procs  int
	}{{"testbed", 4}, {"fire", 128}} {
		spec, err := cluster.ByName(c.system)
		if err != nil {
			t.Fatal(err)
		}
		res, err := suite.Run(suite.DefaultConfig(spec, c.procs))
		if err != nil {
			t.Fatal(err)
		}
		var want *suite.BenchmarkRun
		for i := range res.Runs {
			if res.Runs[i].Measurement.Benchmark == bench.IOzone {
				want = &res.Runs[i]
			}
		}
		if want == nil {
			t.Fatalf("%s: the suite ran no IOzone", c.system)
		}
		m, err := measure(opts(c.system, c.procs, "iozone", 1, uint64(c.procs)*7919+17))
		if err != nil {
			t.Fatal(err)
		}
		row := m.report.Rows[0]
		if row.Seconds != float64(want.Measurement.Time) || row.EnergyJ != float64(want.Measurement.Energy) {
			t.Errorf("%s@%d: powersim IOzone %.1f s / %.1f J, suite %.1f s / %.1f J", c.system, c.procs,
				row.Seconds, row.EnergyJ, float64(want.Measurement.Time), float64(want.Measurement.Energy))
		}
	}
}

// failWriter fails every write, like a full disk behind stdout.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestRunReportsStdoutWriteError: the CSV is the command's product, so a
// failed write to stdout is an error, not a silent exit 0.
func TestRunReportsStdoutWriteError(t *testing.T) {
	o := opts("testbed", 4, "hpl", 1, 1)
	o.quiet = true
	if err := run(o, failWriter{}, io.Discard); err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("run with a failing stdout = %v, want its write error", err)
	}
}

func TestRunDefaultsProcs(t *testing.T) {
	var sb, errb strings.Builder
	if err := run(opts("testbed", 0, "stream", 1, 1), &sb, &errb); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var sb, errb strings.Builder
	if err := run(opts("nope", 1, "hpl", 1, 1), &sb, &errb); err == nil {
		t.Error("bad system accepted")
	}
	if err := run(opts("testbed", 1, "linpack2", 1, 1), &sb, &errb); err == nil {
		t.Error("bad benchmark accepted")
	}
	if err := run(opts("testbed", 1, "hpl", 0, 1), &sb, &errb); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestIntervalControlsSampleCount(t *testing.T) {
	var fine, coarse, errb strings.Builder
	if err := run(opts("testbed", 4, "iozone", 1, 1), &fine, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(opts("testbed", 4, "iozone", 60, 1), &coarse, &errb); err != nil {
		t.Fatal(err)
	}
	if strings.Count(fine.String(), "\n") <= strings.Count(coarse.String(), "\n") {
		t.Error("finer interval did not produce more samples")
	}
}

func TestQuietSuppressesSummary(t *testing.T) {
	o := opts("testbed", 4, "stream", 1, 1)
	o.quiet = true
	var sb, errb strings.Builder
	if err := run(o, &sb, &errb); err != nil {
		t.Fatal(err)
	}
	if errb.Len() != 0 {
		t.Errorf("-quiet still wrote a summary: %q", errb.String())
	}
	if !strings.HasPrefix(sb.String(), "seconds,watts\n") {
		t.Error("-quiet dropped the CSV stream too")
	}
}

func TestReportFileRoutesSummary(t *testing.T) {
	dir := t.TempDir()
	o := opts("testbed", 4, "hpl", 1, 1)
	o.reportPath = filepath.Join(dir, "run.report.txt")
	var sb, errb strings.Builder
	if err := run(o, &sb, &errb); err != nil {
		t.Fatal(err)
	}
	if errb.Len() != 0 {
		t.Errorf("-report still wrote the summary to stderr: %q", errb.String())
	}
	b, err := os.ReadFile(o.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"powersim: HPL on", "mean power", "energy"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("report file missing %q:\n%s", want, b)
		}
	}
}

// TestReportIncludesMeterPercentiles: when instrumentation is on, the
// run summary carries a percentile row for the meter window histogram.
func TestReportIncludesMeterPercentiles(t *testing.T) {
	dir := t.TempDir()
	o := opts("testbed", 4, "hpl", 1, 1)
	o.metricsPath = filepath.Join(dir, "run.metrics.json")
	o.reportPath = filepath.Join(dir, "run.report.txt")
	var sb, errb strings.Builder
	if err := run(o, &sb, &errb); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"meter window seconds (virtual)", "meter.window_seconds", "p50_s"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("report missing %q:\n%s", want, b)
		}
	}
	// Without instrumentation there is no histogram and no table.
	o2 := opts("testbed", 4, "hpl", 1, 1)
	o2.reportPath = filepath.Join(dir, "plain.report.txt")
	if err := run(o2, &sb, &errb); err != nil {
		t.Fatal(err)
	}
	p, err := os.ReadFile(o2.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(p), "p50_s") {
		t.Errorf("uninstrumented report still shows percentiles:\n%s", p)
	}
}

func TestTraceAndMetricsOutputs(t *testing.T) {
	dir := t.TempDir()
	o := opts("testbed", 4, "iozone", 1, 1)
	o.quiet = true
	o.tracePath = filepath.Join(dir, "run.trace.json")
	o.metricsPath = filepath.Join(dir, "run.metrics.json")
	var plain, traced, errb strings.Builder
	if err := run(opts("testbed", 4, "iozone", 1, 1), &plain, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(o, &traced, &errb); err != nil {
		t.Fatal(err)
	}
	// Instrumentation is inert: the CSV stream is byte-identical.
	if plain.String() != traced.String() {
		t.Error("tracing changed the sampled CSV output")
	}
	chk, err := obs.ValidateChromeTraceFile(o.tracePath)
	if err != nil {
		t.Fatalf("emitted trace invalid: %v", err)
	}
	if chk.Spans == 0 {
		t.Error("trace holds no spans (expected at least the meter window)")
	}
	m, err := os.ReadFile(o.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"meter.windows", "meter.samples"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}
