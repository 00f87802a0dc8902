package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

// workerEnv marks the test binary's re-entry as a shard worker: exec'ing
// a real greenbench would exec the test binary, so the worker re-enters
// through TestShardWorkerProcess, which runs greenbench's worker mode on
// the assignment the supervisor writes to its stdin.
const workerEnv = "GREENBENCH_TEST_SHARD_WORKER"

// TestShardWorkerProcess is not a test: it is the shard worker child the
// supervisor e2e tests launch.
func TestShardWorkerProcess(t *testing.T) {
	if os.Getenv(workerEnv) == "" {
		return
	}
	if err := run(options{shardWorker: true}); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// testWorker is the shard-worker factory of the e2e tests, for sharded
// sweeps and daemon jobs alike: it launches this test binary as the
// worker.
func testWorker() (*exec.Cmd, error) {
	cmd := exec.Command(os.Args[0], "-test.run=TestShardWorkerProcess$")
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// sequentialBaseline runs the unfaulted single-process sequential sweep
// and returns its results, trace and metrics paths.
func sequentialBaseline(t *testing.T, dir string) (out, trace, metrics string) {
	t.Helper()
	out = filepath.Join(dir, "seq.json")
	trace = filepath.Join(dir, "seq.trace.json")
	metrics = filepath.Join(dir, "seq.metrics.json")
	err := run(options{
		system: "testbed", sweep: true, workers: 1, placement: "cyclic",
		out: out, tracePath: trace, metricsPath: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, trace, metrics
}

// mustEqualFiles asserts two artifact files are byte-identical.
func mustEqualFiles(t *testing.T, what, a, b string) {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Errorf("%s differs between sequential and sharded runs", what)
	}
}

func shardedOptions(dir, tag string, shards int) options {
	return options{
		system: "testbed", sweep: true, workers: 1, placement: "cyclic", shards: shards,
		out:         filepath.Join(dir, tag+".json"),
		tracePath:   filepath.Join(dir, tag+".trace.json"),
		metricsPath: filepath.Join(dir, tag+".metrics.json"),
		worker:      testWorker,
	}
}

func TestShardedSweepMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	seqOut, seqTrace, seqMetrics := sequentialBaseline(t, dir)
	for _, shards := range []int{2, 3} {
		o := shardedOptions(dir, fmt.Sprintf("sh%d", shards), shards)
		if err := run(o); err != nil {
			t.Fatalf("%d-shard sweep: %v", shards, err)
		}
		mustEqualFiles(t, "results", seqOut, o.out)
		mustEqualFiles(t, "trace", seqTrace, o.tracePath)
		mustEqualFiles(t, "metrics", seqMetrics, o.metricsPath)
		if segs, _ := filepath.Glob(filepath.Join(dir, "*.shard-*")); len(segs) != 0 {
			t.Errorf("%d-shard sweep left segments behind: %v", shards, segs)
		}
		if _, err := os.Stat(o.out + ".journal"); !os.IsNotExist(err) {
			t.Errorf("%d-shard sweep left its journal behind", shards)
		}
	}
}

// TestShardedSweepCarriesSpecAndFaults: a machine-spec file and a fault
// plan reach the shard workers inline in their assignments, and the
// sharded artefacts match the single-process run byte for byte, with
// nothing left next to the journal.
func TestShardedSweepCarriesSpecAndFaults(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "machine.json")
	if err := cluster.SaveSpec(specPath, cluster.Testbed()); err != nil {
		t.Fatal(err)
	}
	planPath := filepath.Join(dir, "plan.json")
	plan := &faults.Plan{Seed: 7, Crashes: []faults.Crash{{Benchmark: "HPL", Node: 1, At: 100}},
		Meter: &faults.Meter{DropRate: 0.05}}
	if err := faults.Save(planPath, plan); err != nil {
		t.Fatal(err)
	}
	seq := shardedOptions(dir, "seq", 0)
	seq.system, seq.specPath, seq.faultsPath, seq.retries = "", specPath, planPath, 1
	if err := run(seq); err != nil {
		t.Fatal(err)
	}
	sh := shardedOptions(dir, "sh", 2)
	sh.system, sh.specPath, sh.faultsPath, sh.retries = "", specPath, planPath, 1
	if err := run(sh); err != nil {
		t.Fatal(err)
	}
	mustEqualFiles(t, "results", seq.out, sh.out)
	mustEqualFiles(t, "trace", seq.tracePath, sh.tracePath)
	mustEqualFiles(t, "metrics", seq.metricsPath, sh.metricsPath)
	if left, _ := filepath.Glob(sh.out + ".journal*"); len(left) != 0 {
		t.Errorf("sharded sweep left %v behind", left)
	}
}

// TestShardedSweepWithOpsTrace: -ops-trace must record a valid
// wall-clock supervisor timeline without changing one byte of the
// deterministic artefacts (the inertness invariant, CLI flavour).
func TestShardedSweepWithOpsTrace(t *testing.T) {
	dir := t.TempDir()
	seqOut, seqTrace, seqMetrics := sequentialBaseline(t, dir)
	o := shardedOptions(dir, "opstrace", 2)
	o.opsTracePath = filepath.Join(dir, "supervisor.trace.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	mustEqualFiles(t, "results", seqOut, o.out)
	mustEqualFiles(t, "trace", seqTrace, o.tracePath)
	mustEqualFiles(t, "metrics", seqMetrics, o.metricsPath)

	check, err := obs.ValidateChromeTraceFile(o.opsTracePath)
	if err != nil {
		t.Fatalf("supervisor timeline invalid: %v", err)
	}
	// One attempt span per shard on a healthy run.
	if check.Spans < 2 {
		t.Errorf("timeline has %d spans, want one per shard (2)", check.Spans)
	}
	data, err := os.ReadFile(o.opsTracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shard 0", "shard 1", "attempt 1", `"outcome": "finished"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("timeline missing %q", want)
		}
	}
}

func TestShardedSweepSurvivesWorkerSIGKILL(t *testing.T) {
	// Shard 1 is SIGKILLed after checkpointing two cells; the marker
	// makes the fault transient, so the supervisor's relaunch completes
	// the shard and the campaign's artifacts stay byte-identical to the
	// unfaulted sequential run.
	dir := t.TempDir()
	seqOut, seqTrace, seqMetrics := sequentialBaseline(t, dir)
	marker := filepath.Join(dir, "killed-once")
	t.Setenv(faults.ProcFaultEnv, "shard=1;after=2;mode=sigkill;marker="+marker)
	o := shardedOptions(dir, "killed", 2)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatal("the injected SIGKILL never fired")
	}
	mustEqualFiles(t, "results", seqOut, o.out)
	mustEqualFiles(t, "trace", seqTrace, o.tracePath)
	mustEqualFiles(t, "metrics", seqMetrics, o.metricsPath)
}

func TestShardedSweepQuarantinesAndResumes(t *testing.T) {
	// Shard 1 dies on every launch (no marker): the supervisor bisects,
	// quarantines its axis points, and the campaign degrades to a partial
	// result with the journal kept. A plain -resume without the fault
	// re-runs the quarantined cells and converges to the unfaulted
	// sequential artifacts, byte for byte.
	dir := t.TempDir()
	seqOut, seqTrace, seqMetrics := sequentialBaseline(t, dir)
	t.Setenv(faults.ProcFaultEnv, "shard=1;after=0;mode=exit")
	o := shardedOptions(dir, "poisoned", 2)
	o.shardRetries = -1 // no relaunch budget: straight to bisection
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	outBytes, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(outBytes), `"quarantined"`) {
		t.Fatal("degraded campaign does not mark quarantined cells in its output")
	}
	journal := o.out + ".journal"
	if _, err := os.Stat(journal); err != nil {
		t.Fatal("journal not kept after a quarantine-degraded campaign")
	}

	os.Unsetenv(faults.ProcFaultEnv)
	re := options{
		system: "testbed", sweep: true, workers: 1, placement: "cyclic", resume: true,
		out: o.out, tracePath: o.tracePath, metricsPath: o.metricsPath,
	}
	if err := run(re); err != nil {
		t.Fatal(err)
	}
	mustEqualFiles(t, "results", seqOut, re.out)
	mustEqualFiles(t, "trace", seqTrace, re.tracePath)
	mustEqualFiles(t, "metrics", seqMetrics, re.metricsPath)
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Error("journal not removed after the resume completed the campaign")
	}
}

func TestValidateCLI(t *testing.T) {
	valid := options{workers: 1}
	if err := validateCLI(valid); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		o    options
		want string
	}{
		{"zero workers", options{workers: 0}, "-workers"},
		{"negative retries", options{workers: 1, retries: -1}, "-retries"},
		{"negative timeout", options{workers: 1, timeout: -5}, "-timeout"},
		{"negative shards", options{workers: 1, shards: -1}, "-shards"},
		{"shards without sweep", options{workers: 1, shards: 2, out: "x.json"}, "-sweep"},
		{"shards without journal", options{workers: 1, shards: 2, sweep: true}, "journal"},
		{"flightrec-size too small", options{workers: 1, flightrecSize: 1}, "-flightrec-size"},
		{"flightrec-size too large", options{workers: 1, flightrecSize: 1 << 30}, "-flightrec-size"},
		{"daemon with native", options{workers: 1, daemon: ":0", native: true, maxJobs: 1}, "-native"},
		{"daemon as shard worker", options{workers: 1, daemon: ":0", shardWorker: true, maxJobs: 1}, "-shard-worker"},
		{"daemon zero max-jobs", options{workers: 1, daemon: ":0"}, "-max-jobs"},
		{"daemon zero ops-sample", options{workers: 1, daemon: ":0", maxJobs: 1}, "-ops-sample"},
		{"ops-trace without shards", options{workers: 1, opsTracePath: "t.json"}, "-ops-trace"},
	} {
		err := validateCLI(tc.o)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
