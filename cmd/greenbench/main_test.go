package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/suite"
)

func TestRunOnePoint(t *testing.T) {
	out := filepath.Join(t.TempDir(), "one.json")
	if err := run(options{system: "testbed", procs: 4, out: out, placement: "cyclic"}); err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Procs != 4 || len(rs[0].Runs) != 3 {
		t.Errorf("results = %+v", rs)
	}
}

func TestRunExtendedFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ext.json")
	if err := run(options{system: "testbed", procs: 8, bench: "extended", out: out, placement: "block"}); err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs[0].Runs) != 7 {
		t.Errorf("extended run has %d benchmarks", len(rs[0].Runs))
	}
	if rs[0].Placement != "block" {
		t.Errorf("placement = %s", rs[0].Placement)
	}
}

func TestRunSweepScalesAxis(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	if err := run(options{system: "testbed", sweep: true, out: out, placement: "cyclic"}); err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("sweep points = %d", len(rs))
	}
	if rs[len(rs)-1].Procs != 8 { // testbed has 8 cores
		t.Errorf("last point procs = %d", rs[len(rs)-1].Procs)
	}
}

func TestRunDefaultsToAllCores(t *testing.T) {
	out := filepath.Join(t.TempDir(), "def.json")
	if err := run(options{system: "testbed", out: out, placement: "cyclic"}); err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Procs != 8 {
		t.Errorf("default procs = %d, want 8", rs[0].Procs)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(options{system: "nope", procs: 1, placement: "cyclic"}); err == nil {
		t.Error("bad system accepted")
	}
	if err := run(options{system: "testbed", procs: 1, placement: "diagonal"}); err == nil {
		t.Error("bad placement accepted")
	}
	// The CLI resolves through the daemon's JobSpec path, so a single
	// point above the machine's cores is refused before anything runs.
	if err := run(options{system: "testbed", procs: 9, placement: "cyclic"}); err == nil ||
		!strings.Contains(err.Error(), "exceeds the 8 cores") {
		t.Errorf("procs above the cores: %v", err)
	}
	// A retry budget whose doubling backoff overflows, or whose attempt
	// count does, is refused before any cell runs.
	out := filepath.Join(t.TempDir(), "out.json")
	for _, retries := range []int{1100, math.MaxInt} {
		err := run(options{system: "testbed", procs: 1, placement: "cyclic", retries: retries, out: out})
		var se *campaign.SpecError
		if !errors.As(err, &se) || se.Reason != campaign.ReasonBadSpec {
			t.Errorf("-retries %d: %v, want a bad_spec refusal", retries, err)
		}
	}
}

// TestRunLargestAcceptedRetries: a traced testbed sweep under a
// near-certain crash plan, at the largest retry budget its job spec
// resolves with, fails every benchmark through its whole budget and
// still writes a valid Chrome trace and parseable metrics; one retry
// more is refused as a bad spec. No accepted budget reaches +Inf.
func TestRunLargestAcceptedRetries(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "crash.json")
	writeJSONFile(t, planPath, &faults.Plan{Seed: 1, CrashProb: 0.999999})
	o := options{
		system: "testbed", sweep: true, workers: 1, placement: "cyclic", faultsPath: planPath,
		tracePath: filepath.Join(dir, "trace.json"), metricsPath: filepath.Join(dir, "metrics.json"),
	}
	for o.retries = 900; o.retries < 1100; o.retries++ {
		if _, err := o.resolve(); err != nil {
			break
		}
	}
	refused := o
	o.retries--
	if o.retries < 900 {
		t.Fatalf("a retry budget of 900 is already refused")
	}
	err := run(refused)
	var se *campaign.SpecError
	if !errors.As(err, &se) || se.Reason != campaign.ReasonBadSpec {
		t.Fatalf("-retries %d: %v, want a bad_spec refusal", refused.retries, err)
	}
	if err := run(o); err != nil {
		t.Fatalf("-retries %d: %v", o.retries, err)
	}
	if _, err := obs.ValidateChromeTraceFile(o.tracePath); err != nil {
		t.Errorf("-retries %d trace: %v", o.retries, err)
	}
	data, err := os.ReadFile(o.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Errorf("-retries %d metrics: %v", o.retries, err)
	}
}

func TestRunWithSpecFile(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	writeJSONFile(t, specPath, cluster.Testbed())
	out := filepath.Join(dir, "out.json")
	if err := run(options{specPath: specPath, procs: 4, out: out, placement: "cyclic"}); err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].System != "Testbed" {
		t.Errorf("system = %s", rs[0].System)
	}
}

func TestRunWithFaultPlanRecovers(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	plan := &faults.Plan{
		Crashes: []faults.Crash{{Benchmark: "HPL", Node: 1, At: 100, Attempt: 0}},
	}
	writeJSONFile(t, planPath, plan)
	out := filepath.Join(dir, "out.json")
	err := run(options{system: "testbed", procs: 4, out: out, placement: "cyclic",
		faultsPath: planPath, retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Degraded {
		t.Fatalf("run with one retry degraded: %v", rs[0].Warnings)
	}
	if rs[0].Runs[0].Status != suite.StatusRecovered {
		t.Errorf("HPL = %+v, want recovered", rs[0].Runs[0])
	}
	// Without the retry the same plan degrades the run instead of erroring.
	outDeg := filepath.Join(dir, "deg.json")
	err = run(options{system: "testbed", procs: 4, out: outDeg, placement: "cyclic",
		faultsPath: planPath})
	if err != nil {
		t.Fatal(err)
	}
	rs, err = suite.LoadJSON(outDeg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Degraded || rs[0].Runs[0].Status != suite.StatusFailed {
		t.Errorf("retry-less crashed run = %+v, want degraded", rs[0])
	}
	if got := len(rs[0].Measurements()); got != 2 {
		t.Errorf("survivors = %d, want 2", got)
	}
}

func TestRunSweepResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	// The uninterrupted sweep is the ground truth.
	full := filepath.Join(dir, "full.json")
	if err := run(options{system: "testbed", sweep: true, out: full, placement: "cyclic"}); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(full + ".journal"); !os.IsNotExist(err) {
		t.Error("journal not removed after a completed sweep")
	}
	// Simulate an interrupted sweep: checkpoint the first axis points by
	// hand, exactly as a killed process would have left them.
	resumed := filepath.Join(dir, "resumed.json")
	journal, err := suite.OpenJournal(resumed + ".journal")
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Testbed()
	for _, p := range []int{1, 2, 3} { // testbed: 8 cores -> axis 1..8
		r, err := suite.Run(suite.DefaultConfig(spec, p))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range r.Runs {
			key := suite.CellKey(spec.Name, p, "cyclic", b.Measurement.Benchmark)
			if err := journal.Record(key, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Resume completes the remaining cells and must produce the identical
	// output file.
	if err := run(options{system: "testbed", sweep: true, out: resumed,
		placement: "cyclic", resume: true}); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Error("resumed sweep output differs from uninterrupted sweep")
	}
	if _, err := os.Stat(resumed + ".journal"); !os.IsNotExist(err) {
		t.Error("journal not removed after the resumed sweep completed")
	}
}

func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	plan := &faults.Plan{
		Seed:      7,
		Crashes:   []faults.Crash{{Benchmark: "HPL", Node: 1, At: 100, Attempt: 0}},
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.8},
		Meter:     &faults.Meter{DropRate: 0.05},
	}
	writeJSONFile(t, planPath, plan)
	// Ground truth: the same scenario untraced.
	plain := filepath.Join(dir, "plain.json")
	if err := run(options{system: "testbed", procs: 4, out: plain, placement: "cyclic",
		faultsPath: planPath, retries: 1}); err != nil {
		t.Fatal(err)
	}
	traced := filepath.Join(dir, "traced.json")
	tracePath := filepath.Join(dir, "run.trace.json")
	metricsPath := filepath.Join(dir, "run.metrics.json")
	reportPath := filepath.Join(dir, "run.report.txt")
	if err := run(options{system: "testbed", procs: 4, out: traced, placement: "cyclic",
		faultsPath: planPath, retries: 1,
		tracePath: tracePath, metricsPath: metricsPath, reportPath: reportPath}); err != nil {
		t.Fatal(err)
	}
	// Tracing is inert: the results JSON is byte-identical.
	a, _ := os.ReadFile(plain)
	b, _ := os.ReadFile(traced)
	if string(a) != string(b) {
		t.Error("tracing changed the results JSON")
	}
	chk, err := obs.ValidateChromeTraceFile(tracePath)
	if err != nil {
		t.Fatalf("emitted trace invalid: %v", err)
	}
	if chk.Spans == 0 || chk.Instants == 0 {
		t.Errorf("trace = %+v, want spans and fault events", chk)
	}
	m, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"suite.attempts", "faults.crashes", "meter.windows"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	rep, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HPL", "recovered", "retries", "energy"} {
		if !strings.Contains(string(rep), want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestRunSweepResumeReplaysTrace(t *testing.T) {
	dir := t.TempDir()
	// The README's fault plan with seed 4 plus a scheduled crash on
	// STREAM's first attempt, so every cell retries.
	planPath := filepath.Join(dir, "plan.json")
	writeJSONFile(t, planPath, &faults.Plan{
		Seed:      4,
		CrashProb: 0.2,
		Crashes:   []faults.Crash{{Benchmark: "STREAM", Node: 1, At: 1}},
		Straggler: &faults.Straggler{Prob: 0.1, ClockFactor: 0.5},
		Meter:     &faults.Meter{DropRate: 0.05, GlitchRate: 0.02, GlitchWatts: 60},
	})
	for _, tc := range []struct {
		name           string
		placement      string
		faultsPath     string
		retries        int
		workers        int
		interruptAfter int
	}{
		{"clean", "cyclic", "", 0, 0, 9},
		{"faulty/workers=1", "block", planPath, 3, 1, 13},
		{"faulty/workers=2", "block", planPath, 3, 2, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sweep := func(out, trace, metrics string, resume bool, interruptAfter int) error {
				return run(options{system: "testbed", sweep: true, out: out,
					placement: tc.placement, faultsPath: tc.faultsPath, retries: tc.retries,
					workers: tc.workers, tracePath: trace, metricsPath: metrics,
					journalPath: out + ".journal", resume: resume, interruptAfter: interruptAfter})
			}
			// The uninterrupted traced sweep is the ground truth.
			full := filepath.Join(dir, "full.json")
			fullTrace := filepath.Join(dir, "full.trace.json")
			fullMetrics := filepath.Join(dir, "full.metrics.json")
			if err := sweep(full, fullTrace, fullMetrics, false, 0); err != nil {
				t.Fatal(err)
			}
			wantTrace, err := os.ReadFile(fullTrace)
			if err != nil {
				t.Fatal(err)
			}
			// Interrupt a traced sweep partway by running it with a
			// checkpoint hook that aborts, exactly as a killed process would.
			resumed := filepath.Join(dir, "resumed.json")
			err = sweep(resumed, filepath.Join(dir, "partial.trace.json"), "", false, tc.interruptAfter)
			if err == nil || !strings.Contains(err.Error(), "interrupted") {
				t.Fatalf("interrupted sweep did not stop: %v", err)
			}
			// Resume must replay the journaled cells' spans and produce the
			// identical trace file.
			resumedTrace := filepath.Join(dir, "resumed.trace.json")
			resumedMetrics := filepath.Join(dir, "resumed.metrics.json")
			if err := sweep(resumed, resumedTrace, resumedMetrics, true, 0); err != nil {
				t.Fatal(err)
			}
			gotTrace, err := os.ReadFile(resumedTrace)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotTrace) != string(wantTrace) {
				t.Error("resumed sweep trace differs from uninterrupted sweep trace")
			}
			// And the results themselves still match the untraced contract.
			a, _ := os.ReadFile(full)
			b, _ := os.ReadFile(resumed)
			if string(a) != string(b) {
				t.Error("resumed sweep output differs from uninterrupted sweep")
			}
			a, _ = os.ReadFile(fullMetrics)
			b, _ = os.ReadFile(resumedMetrics)
			if string(a) != string(b) {
				t.Error("resumed sweep metrics differ from uninterrupted sweep metrics")
			}
		})
	}
}

func TestRunCorruptInputFiles(t *testing.T) {
	dir := t.TempDir()
	badSpec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(badSpec, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(options{specPath: badSpec, procs: 2, placement: "cyclic"})
	if err == nil {
		t.Error("corrupt spec accepted")
	} else if !strings.Contains(err.Error(), "spec.json") {
		t.Errorf("spec error does not name the file: %v", err)
	}
	badPlan := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(badPlan, []byte(`{"crash_prob": "high"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(options{system: "testbed", procs: 2, placement: "cyclic", faultsPath: badPlan})
	if err == nil {
		t.Error("corrupt fault plan accepted")
	} else if !strings.Contains(err.Error(), "not a valid fault plan") {
		t.Errorf("unhelpful fault-plan error: %v", err)
	}
}

func TestRunNativeMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "host.json")
	if err := run(options{native: true, watts: 100, procs: 2, out: out}); err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].System != "host" || len(rs[0].Runs) != 8 {
		t.Errorf("native result = %+v", rs[0])
	}
	// Without watts it must refuse.
	if err := run(options{native: true}); err == nil {
		t.Error("native run without watts accepted")
	}
}

func TestRunListFlag(t *testing.T) {
	if err := run(options{list: true}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
}

// TestRunReportsStdoutWriteError: without -o the summary is a run's only
// output, so a stdout that refuses writes (here a read-only file, as
// /dev/full refuses them for want of space) fails the run, and so does
// -list.
func TestRunReportsStdoutWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	readOnly, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	stdout := os.Stdout
	os.Stdout = readOnly
	defer func() { os.Stdout = stdout }()
	if err := run(options{system: "testbed", procs: 4, placement: "cyclic"}); err == nil {
		t.Error("run with an unwritable stdout succeeded")
	}
	if err := run(options{list: true}); err == nil {
		t.Error("-list with an unwritable stdout succeeded")
	}
}

func TestRunBenchFlagComposesSuite(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "custom.json")
	if err := run(options{system: "testbed", procs: 4, out: out,
		placement: "cyclic", bench: "hpl,beff"}); err != nil {
		t.Fatal(err)
	}
	rs, err := suite.LoadJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs[0].Runs) != 2 {
		t.Fatalf("custom suite ran %d benchmarks, want 2", len(rs[0].Runs))
	}
	if got := rs[0].Runs[0].Measurement.Benchmark; got != "HPL" {
		t.Errorf("first benchmark = %q, want HPL", got)
	}
	if got := rs[0].Runs[1].Measurement.Benchmark; got != "b_eff" {
		t.Errorf("second benchmark = %q, want b_eff", got)
	}
	// The named sets resolve too.
	ext := filepath.Join(dir, "ext.json")
	if err := run(options{system: "testbed", procs: 4, out: ext,
		placement: "cyclic", bench: "extended"}); err != nil {
		t.Fatal(err)
	}
	if rs, err = suite.LoadJSON(ext); err != nil {
		t.Fatal(err)
	}
	if len(rs[0].Runs) != 7 {
		t.Errorf("-bench extended ran %d benchmarks, want 7", len(rs[0].Runs))
	}
	// Unknown names fail loudly.
	if err := run(options{system: "testbed", procs: 4, placement: "cyclic",
		bench: "hpl,linpack"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunSweepParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	plan := &faults.Plan{
		Seed:      7,
		Crashes:   []faults.Crash{{Benchmark: "HPL", Node: 1, At: 100, Attempt: 0}},
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.8},
		Meter:     &faults.Meter{DropRate: 0.05},
	}
	writeJSONFile(t, planPath, plan)
	read := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct {
		name       string
		faultsPath string
		retries    int
	}{
		{"clean", "", 0},
		{"faulty", planPath, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqOut := filepath.Join(dir, tc.name+".seq.json")
			seqTrace := filepath.Join(dir, tc.name+".seq.trace.json")
			seqMetrics := filepath.Join(dir, tc.name+".seq.metrics.json")
			if err := run(options{system: "testbed", sweep: true, out: seqOut,
				placement: "cyclic", faultsPath: tc.faultsPath, retries: tc.retries,
				tracePath: seqTrace, metricsPath: seqMetrics}); err != nil {
				t.Fatal(err)
			}
			parOut := filepath.Join(dir, tc.name+".par.json")
			parTrace := filepath.Join(dir, tc.name+".par.trace.json")
			parMetrics := filepath.Join(dir, tc.name+".par.metrics.json")
			if err := run(options{system: "testbed", sweep: true, workers: 4, out: parOut,
				placement: "cyclic", faultsPath: tc.faultsPath, retries: tc.retries,
				tracePath: parTrace, metricsPath: parMetrics}); err != nil {
				t.Fatal(err)
			}
			if read(seqOut) != read(parOut) {
				t.Error("-workers 4 sweep output differs from sequential")
			}
			if read(seqTrace) != read(parTrace) {
				t.Error("-workers 4 campaign trace differs from sequential")
			}
			if read(seqMetrics) != read(parMetrics) {
				t.Error("-workers 4 campaign metrics differ from sequential")
			}
		})
	}
}

func TestRunSweepParallelResumeReplaysTrace(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	fullTrace := filepath.Join(dir, "full.trace.json")
	if err := run(options{system: "testbed", sweep: true, out: full,
		placement: "cyclic", tracePath: fullTrace}); err != nil {
		t.Fatal(err)
	}
	// Interrupt a sequential traced sweep, then finish it on four workers:
	// the journal's cell-relative traces are scheduler-invariant.
	resumed := filepath.Join(dir, "resumed.json")
	err := run(options{system: "testbed", sweep: true, out: resumed,
		placement: "cyclic", tracePath: filepath.Join(dir, "partial.trace.json"),
		journalPath: resumed + ".journal", interruptAfter: 9})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted sweep did not stop: %v", err)
	}
	resumedTrace := filepath.Join(dir, "resumed.trace.json")
	if err := run(options{system: "testbed", sweep: true, workers: 4, out: resumed,
		placement: "cyclic", resume: true, tracePath: resumedTrace,
		journalPath: resumed + ".journal"}); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(fullTrace)
	got, _ := os.ReadFile(resumedTrace)
	if string(got) != string(want) {
		t.Error("parallel-resumed sweep trace differs from uninterrupted sweep trace")
	}
	a, _ := os.ReadFile(full)
	b, _ := os.ReadFile(resumed)
	if string(a) != string(b) {
		t.Error("parallel-resumed sweep output differs from uninterrupted sweep")
	}
}

func TestRunSweepJournalRefusesDifferentBenchList(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.json")
	journalPath := out + ".journal"
	err := run(options{system: "testbed", sweep: true, out: out,
		placement: "cyclic", journalPath: journalPath, interruptAfter: 6})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted sweep did not stop: %v", err)
	}
	// Resuming with another suite composition must fail with a clear error
	// instead of mixing incomparable measurements.
	err = run(options{system: "testbed", sweep: true, out: out,
		placement: "cyclic", journalPath: journalPath, resume: true,
		bench: "extended"})
	if err == nil {
		t.Fatal("journal accepted a different benchmark list")
	}
	if !strings.Contains(err.Error(), "benchmarks") || !strings.Contains(err.Error(), "delete") {
		t.Errorf("unhelpful benchmark-mismatch error: %v", err)
	}
	// The original composition still resumes cleanly.
	if err := run(options{system: "testbed", sweep: true, out: out,
		placement: "cyclic", journalPath: journalPath, resume: true}); err != nil {
		t.Fatal(err)
	}
}

// writeJSONFile writes v to path as indented JSON, the way a user hands
// greenbench a machine spec or fault plan.
func writeJSONFile(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
