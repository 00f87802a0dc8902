package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/shard"
)

// fastJob is the quickest real campaign: one benchmark at one point on
// the smallest built-in system.
func fastJob() JobSpec {
	return JobSpec{System: "testbed", Benchmarks: []string{"hpl"}, Procs: 2}
}

// slowJob paces each sweep cell so tests can observe (and cancel) a job
// mid-run.
func slowJob() JobSpec {
	return JobSpec{System: "testbed", Sweep: true, CellPauseMS: 50}
}

func newTestManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID(), j.State())
	}
}

func TestManagerRunsJobToDone(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	j, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-0001" {
		t.Errorf("first job ID = %q", j.ID())
	}
	waitDone(t, j)
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %s, want done (error: %s)", st, j.Status().Error)
	}
	// Every artefact of the isolated job directory must exist: the job
	// always runs traced.
	for _, name := range []string{ResultsFile, TraceFile, MetricsFile, ReportFile} {
		if _, err := os.Stat(filepath.Join(j.Dir(), name)); err != nil {
			t.Errorf("artefact %s missing: %v", name, err)
		}
	}
	st := j.Status()
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Error("done job missing started/finished timestamps")
	}
	if st.Progress.CellsTotal != 1 || st.Progress.CellsDone != 1 {
		t.Errorf("progress = %+v, want 1/1 cells", st.Progress)
	}
	if len(st.Artifacts) != 4 {
		t.Errorf("status lists artefacts %v, want 4", st.Artifacts)
	}
}

// TestManagerRestartContinuesJobIDs: a manager restarted over the same
// directory numbers its jobs after the earlier ones, so the first job's
// artefacts survive the second job.
func TestManagerRestartContinuesJobIDs(t *testing.T) {
	dir := t.TempDir()
	first := newTestManager(t, ManagerConfig{Dir: dir})
	j1, err := first.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	first.Close()
	before, err := os.ReadFile(filepath.Join(dir, j1.ID(), ResultsFile))
	if err != nil {
		t.Fatal(err)
	}

	second := newTestManager(t, ManagerConfig{Dir: dir})
	spec := fastJob()
	spec.Procs = 1
	j2, err := second.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if j1.ID() != "job-0001" || j2.ID() != "job-0002" {
		t.Fatalf("job IDs across a restart = %q, %q; want job-0001, job-0002", j1.ID(), j2.ID())
	}
	after, err := os.ReadFile(filepath.Join(dir, j1.ID(), ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("the restarted manager overwrote the earlier job's results")
	}
}

func TestManagerQueuesBeyondMaxConcurrent(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxConcurrent: 1})
	first, err := m.Submit(slowJob())
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if st := second.State(); st != StateQueued {
		t.Fatalf("second job state = %s, want queued behind the first", st)
	}
	if d := m.QueueDepth(); d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}
	waitDone(t, first)
	waitDone(t, second)
	if st := second.State(); st != StateDone {
		t.Fatalf("second job state = %s, want done", st)
	}
}

func TestManagerCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxConcurrent: 1})
	if _, err := m.Submit(slowJob()); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, queued)
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	// Cancelling a finished job is a structured conflict.
	_, err = m.Cancel(queued.ID())
	var se *SpecError
	if !errors.As(err, &se) || se.Reason != ReasonJobFinished {
		t.Fatalf("second cancel: %v, want reason %s", err, ReasonJobFinished)
	}
}

func TestManagerCancelRunningJobDumpsFlight(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	j, err := m.Submit(slowJob())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != StateRunning && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	if _, err := os.Stat(filepath.Join(j.Dir(), FlightFile)); err != nil {
		t.Errorf("cancelled running job left no flight dump: %v", err)
	}
	if !j.Status().CancelRequested {
		t.Error("CancelRequested not recorded")
	}
}

func TestManagerRejectsWhenQueueFull(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxConcurrent: 1, MaxQueued: 1})
	if _, err := m.Submit(slowJob()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(slowJob()); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(fastJob())
	var se *SpecError
	if !errors.As(err, &se) || se.Reason != ReasonQueueFull {
		t.Fatalf("overfull submit: %v, want reason %s", err, ReasonQueueFull)
	}
}

func TestManagerRejectsShardedJobWithoutWorkerFactory(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	_, err := m.Submit(JobSpec{System: "testbed", Sweep: true, Shards: 2})
	var se *SpecError
	if !errors.As(err, &se) || se.Reason != ReasonNoWorkerFactory {
		t.Fatalf("sharded submit: %v, want reason %s", err, ReasonNoWorkerFactory)
	}
}

func TestManagerCloseCancelsEverything(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxConcurrent: 1})
	running, err := m.Submit(slowJob())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if st := queued.State(); st != StateCancelled {
		t.Errorf("queued job state after Close = %s, want cancelled", st)
	}
	if st := running.State(); !st.Terminal() {
		t.Errorf("running job state after Close = %s, want terminal", st)
	}
	_, err = m.Submit(fastJob())
	var se *SpecError
	if !errors.As(err, &se) || se.Reason != ReasonShuttingDown {
		t.Fatalf("submit after Close: %v, want reason %s", err, ReasonShuttingDown)
	}
}

func TestManagerRejectsBadFlightCapacity(t *testing.T) {
	_, err := NewManager(ManagerConfig{Dir: t.TempDir(), FlightCapacity: 3})
	if err == nil {
		t.Fatal("out-of-range flight capacity accepted")
	}
}

func TestManagerCustomFlightCapacity(t *testing.T) {
	m := newTestManager(t, ManagerConfig{FlightCapacity: 64})
	j, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %s, want done", st)
	}
}

// TestJobShardStatus: a job's supervisor events become the per-shard
// status GET /jobs/{id} serves; bisections and heartbeat gaps leave it
// alone.
func TestJobShardStatus(t *testing.T) {
	j := &Job{res: &Resolved{}, dir: t.TempDir()}
	for _, e := range []shard.Event{
		{Kind: shard.Started, Shard: 0, Attempt: 0, Cells: 4},
		{Kind: shard.Started, Shard: 1, Attempt: 0, Cells: 4},
		{Kind: shard.Lost, Shard: 1, Reason: "signal: killed"},
		{Kind: shard.Started, Shard: 1, Attempt: 1, Cells: 4},
		{Kind: shard.Lost, Shard: 1, Reason: "exit status 3"},
		{Kind: shard.Bisected, Shard: 1, Left: []int{1, 2}, Right: []int{3, 4}},
		{Kind: shard.BeatGap, Shard: 1, Missed: 2},
		{Kind: shard.Quarantined, Shard: 1, Procs: 3, Reason: "exit status 3"},
		{Kind: shard.Finished, Shard: 0},
		{Kind: shard.BeatGap, Shard: 2, Missed: 1},
	} {
		j.observeShard(e)
	}
	want := []ShardStatus{
		{Shard: 0, State: "finished", Attempts: 1},
		{Shard: 1, State: "quarantining", Attempts: 2, Reason: "exit status 3"},
	}
	if got := j.Status().Shards; !reflect.DeepEqual(got, want) {
		t.Fatalf("shard status = %+v, want %+v", got, want)
	}
}
