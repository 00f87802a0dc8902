package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/faults"
)

// startDaemon runs greenbench -daemon in-process on an ephemeral port
// and returns its base URL. The daemon stops (and run returns) at test
// cleanup.
func startDaemon(t *testing.T, o options) string {
	t.Helper()
	addrCh := make(chan string, 1)
	o.daemon = "127.0.0.1:0"
	if o.maxJobs == 0 {
		o.maxJobs = 2
	}
	o.workers = 1
	o.daemonStop = make(chan struct{})
	o.onServe = func(addr string) { addrCh <- addr }
	errCh := make(chan error, 1)
	go func() { errCh <- run(o) }()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started serving")
	}
	t.Cleanup(func() {
		close(o.daemonStop)
		select {
		case err := <-errCh:
			if err != nil {
				t.Errorf("daemon shutdown: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon did not shut down")
		}
	})
	return base
}

func submitJob(t *testing.T, base string, spec campaign.JobSpec) campaign.Status {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, body)
	}
	var st campaign.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitJob(t *testing.T, base, id string) campaign.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %s", id, resp.StatusCode, body)
		}
		var st campaign.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonArtifactsMatchCLI is the byte-identity golden: the same
// campaign submitted to the daemon and run from the CLI must produce
// identical results, trace and metrics files. The report differs only
// if observability state leaked between planes — compare it too.
func TestDaemonArtifactsMatchCLI(t *testing.T) {
	dir := t.TempDir()

	// CLI run.
	cli := options{
		system: "testbed", sweep: true, workers: 1, placement: "cyclic",
		out:         filepath.Join(dir, "cli.json"),
		tracePath:   filepath.Join(dir, "cli.trace.json"),
		metricsPath: filepath.Join(dir, "cli.metrics.json"),
		reportPath:  filepath.Join(dir, "cli.report.txt"),
	}
	if err := run(cli); err != nil {
		t.Fatal(err)
	}

	// Same campaign through the daemon.
	base := startDaemon(t, options{daemonDir: filepath.Join(dir, "jobs")})
	st := submitJob(t, base, campaign.JobSpec{System: "testbed", Sweep: true})
	st = waitJob(t, base, st.ID)
	if st.State != campaign.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	for _, pair := range []struct{ what, cliPath, jobFile string }{
		{"results", cli.out, campaign.ResultsFile},
		{"trace", cli.tracePath, campaign.TraceFile},
		{"metrics", cli.metricsPath, campaign.MetricsFile},
		{"report", cli.reportPath, campaign.ReportFile},
	} {
		mustEqualFiles(t, pair.what, pair.cliPath, filepath.Join(st.Dir, pair.jobFile))
	}

	// The report is also served over HTTP, byte-identical to the file.
	resp, err := http.Get(base + "/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want, err := os.ReadFile(cli.reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Error("served report differs from the CLI report")
	}
}

// TestDaemonStreamsAndCancels: two jobs at once — stream the first's
// events mid-run, cancel the second, and watch /metrics track both.
func TestDaemonStreamsAndCancels(t *testing.T) {
	dir := t.TempDir()
	base := startDaemon(t, options{daemonDir: filepath.Join(dir, "jobs"), maxJobs: 1})

	first := submitJob(t, base, campaign.JobSpec{Name: "streamed", System: "testbed", Sweep: true, CellPauseMS: 20})
	second := submitJob(t, base, campaign.JobSpec{Name: "doomed", System: "testbed"})
	if second.State != campaign.StateQueued {
		t.Fatalf("second job state = %s, want queued behind max-jobs 1", second.State)
	}

	// Stream the first job's events while it runs.
	streamed := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/jobs/" + first.ID + "/events")
		if err != nil {
			streamed <- -1
			return
		}
		defer resp.Body.Close()
		n := 0
		buf := make([]byte, 4096)
		for {
			k, err := resp.Body.Read(buf)
			n += bytes.Count(buf[:k], []byte("\n"))
			if err != nil {
				break
			}
		}
		streamed <- n
	}()

	// Cancel the queued job.
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+second.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job: %d", resp.StatusCode)
	}
	if st := waitJob(t, base, second.ID); st.State != campaign.StateCancelled {
		t.Fatalf("cancelled job state = %s", st.State)
	}

	if st := waitJob(t, base, first.ID); st.State != campaign.StateDone {
		t.Fatalf("first job ended %s: %s", st.State, st.Error)
	}
	select {
	case n := <-streamed:
		if n <= 0 {
			t.Fatalf("streamed %d event lines, want > 0", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not end after the job finished")
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`campaign_jobs{state="done"} 1`,
		`campaign_jobs{state="cancelled"} 1`,
		"campaign_jobs_total 2",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q\n%s", want, metrics)
		}
	}
}

// TestDaemonShardedJobMatchesCLI runs a sharded job through the daemon
// (workers re-enter this test binary) and checks the artefacts against
// the plain sequential CLI run — the sharded daemon path must not change
// a single byte either.
func TestDaemonShardedJobMatchesCLI(t *testing.T) {
	dir := t.TempDir()
	seqOut, seqTrace, seqMetrics := sequentialBaseline(t, dir)

	base := startDaemon(t, options{daemonDir: filepath.Join(dir, "jobs"), worker: testWorker})
	st := submitJob(t, base, campaign.JobSpec{System: "testbed", Sweep: true, Shards: 2})
	st = waitJob(t, base, st.ID)
	if st.State != campaign.StateDone {
		t.Fatalf("sharded job ended %s: %s", st.State, st.Error)
	}
	if len(st.Shards) != 2 {
		t.Errorf("status lists %d shards, want 2: %+v", len(st.Shards), st.Shards)
	}
	for _, s := range st.Shards {
		if s.State != "finished" {
			t.Errorf("shard %d state = %q, want finished", s.Shard, s.State)
		}
	}
	mustEqualFiles(t, "results", seqOut, filepath.Join(st.Dir, campaign.ResultsFile))
	mustEqualFiles(t, "trace", seqTrace, filepath.Join(st.Dir, campaign.TraceFile))
	mustEqualFiles(t, "metrics", seqMetrics, filepath.Join(st.Dir, campaign.MetricsFile))

	// An inline machine spec and fault plan, a retry budget, a timeout
	// that stragglers exceed and a cell pause all reach the workers in
	// their stdin assignments: the job matches the CLI run of the same
	// campaign, and nothing is handed off through the job directory.
	plan := &faults.Plan{Seed: 4, CrashProb: 0.2,
		Crashes:   []faults.Crash{{Benchmark: "STREAM", Node: 1, At: 1}},
		Straggler: &faults.Straggler{Prob: 0.1, ClockFactor: 0.5},
		Meter:     &faults.Meter{DropRate: 0.05, GlitchRate: 0.02, GlitchWatts: 60}}
	specPath := filepath.Join(dir, "machine.json")
	planPath := filepath.Join(dir, "plan.json")
	if err := cluster.SaveSpec(specPath, cluster.Testbed()); err != nil {
		t.Fatal(err)
	}
	if err := faults.Save(planPath, plan); err != nil {
		t.Fatal(err)
	}
	cli := options{
		specPath: specPath, faultsPath: planPath, retries: 3, timeout: 1500, cellPause: time.Millisecond,
		sweep: true, workers: 1, placement: "cyclic",
		out:         filepath.Join(dir, "faulty.json"),
		tracePath:   filepath.Join(dir, "faulty.trace.json"),
		metricsPath: filepath.Join(dir, "faulty.metrics.json"),
	}
	if err := run(cli); err != nil {
		t.Fatal(err)
	}
	st = submitJob(t, base, campaign.JobSpec{Spec: cluster.Testbed(), Sweep: true, Shards: 3,
		Faults: plan, Retries: 3, TimeoutSeconds: 1500, CellPauseMS: 1})
	st = waitJob(t, base, st.ID)
	if st.State != campaign.StateDone {
		t.Fatalf("faulty sharded job ended %s: %s", st.State, st.Error)
	}
	mustEqualFiles(t, "faulty results", cli.out, filepath.Join(st.Dir, campaign.ResultsFile))
	mustEqualFiles(t, "faulty trace", cli.tracePath, filepath.Join(st.Dir, campaign.TraceFile))
	mustEqualFiles(t, "faulty metrics", cli.metricsPath, filepath.Join(st.Dir, campaign.MetricsFile))
	for _, pattern := range []string{"*.spec.json", "*.faults.json", "*.shard-*"} {
		if left, _ := filepath.Glob(filepath.Join(st.Dir, pattern)); len(left) != 0 {
			t.Errorf("faulty sharded job left %v in its directory", left)
		}
	}
	data, err := os.ReadFile(cli.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"outcome": "crashed"`, `"outcome": "timeout"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("faulty campaign trace lacks %s: the plan or timeout did not act", want)
		}
	}
}

// TestDaemonOpsEndpoints scrapes the operational surface of a working
// daemon: /statusz aggregates, verbose /healthz, and the ops series
// appended to /metrics.
func TestDaemonOpsEndpoints(t *testing.T) {
	dir := t.TempDir()
	base := startDaemon(t, options{daemonDir: filepath.Join(dir, "jobs"), opsSample: time.Minute})
	st := submitJob(t, base, campaign.JobSpec{System: "testbed"})
	if waitJob(t, base, st.ID).State != campaign.StateDone {
		t.Fatal("job did not finish")
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}

	var statusz struct {
		OpsEnabled  bool           `json:"ops_enabled"`
		JobsByState map[string]int `json:"jobs_by_state"`
		Ops         *struct {
			Queue struct {
				JobsRun uint64 `json:"jobs_finished_total"`
			} `json:"queue"`
			Runtime struct {
				Goroutines int `json:"goroutines"`
			} `json:"runtime"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(get("/statusz"), &statusz); err != nil {
		t.Fatalf("statusz not JSON: %v", err)
	}
	if !statusz.OpsEnabled || statusz.Ops == nil {
		t.Fatal("daemon default must have the ops plane enabled")
	}
	if statusz.JobsByState["done"] != 1 || statusz.Ops.Queue.JobsRun != 1 {
		t.Errorf("statusz job aggregates wrong: %+v", statusz)
	}
	if statusz.Ops.Runtime.Goroutines < 1 {
		t.Error("statusz runtime sample empty (sampler should prime it)")
	}

	var health struct {
		Status    string `json:"status"`
		Slots     int    `json:"slots"`
		Accepting bool   `json:"accepting"`
	}
	if err := json.Unmarshal(get("/healthz?verbose=1"), &health); err != nil {
		t.Fatalf("verbose healthz not JSON: %v", err)
	}
	if health.Status != "ok" || health.Slots != 2 || !health.Accepting {
		t.Errorf("verbose healthz = %+v", health)
	}

	metrics := string(get("/metrics"))
	for _, want := range []string{
		`ops_http_requests_total{route="POST /jobs",code="202"} 1`,
		`ops_http_request_seconds_bucket{route="GET /jobs/{id}",le="+Inf"}`,
		"campaign_slots 2",
		"campaign_jobs_finished_total 1",
		"ops_runtime_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDaemonNoOpsMatchesOpsArtifacts pins the inertness invariant at the
// daemon level: the same job with -no-ops and with the default ops plane
// produces byte-identical artefacts, and -no-ops strips the ops surface.
func TestDaemonNoOpsMatchesOpsArtifacts(t *testing.T) {
	dir := t.TempDir()
	runJob := func(tag string, noOps bool) string {
		base := startDaemon(t, options{daemonDir: filepath.Join(dir, tag), noOps: noOps})
		st := submitJob(t, base, campaign.JobSpec{System: "testbed", Sweep: true})
		st = waitJob(t, base, st.ID)
		if st.State != campaign.StateDone {
			t.Fatalf("%s job ended %s: %s", tag, st.State, st.Error)
		}
		if noOps {
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			metrics, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(metrics), "ops_http_requests_total") {
				t.Error("-no-ops daemon still renders ops series")
			}
		}
		return st.Dir
	}
	opsDir := runJob("with-ops", false)
	plainDir := runJob("no-ops", true)
	for _, name := range []string{campaign.ResultsFile, campaign.TraceFile, campaign.MetricsFile, campaign.ReportFile} {
		mustEqualFiles(t, name, filepath.Join(opsDir, name), filepath.Join(plainDir, name))
	}
}
