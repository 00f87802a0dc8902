package campaign

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/shard"
)

// State is a job's position in its lifecycle:
//
//	queued → running → done | failed | cancelled | quarantined
//
// A queued job may also jump straight to cancelled. All four right-hand
// states are terminal.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateQuarantined State = "quarantined"
)

// States lists every job state in lifecycle order — the fixed iteration
// order for metrics and docs (never range a map for these).
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateQuarantined}
}

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateQuarantined:
		return true
	}
	return false
}

// Job artefact file names inside the job directory. Fixed names (rather
// than spec-derived ones) keep the HTTP surface simple: the report is
// always <dir>/report.txt, the flight dump always <dir>/flight.json.
const (
	ResultsFile = "results.json"
	TraceFile   = "trace.json"
	MetricsFile = "metrics.json"
	ReportFile  = "report.txt"
	FlightFile  = "flight.json"
	// OpsTraceFile is the wall-clock supervisor timeline of a sharded
	// job (Chrome trace), written only when the ops plane is enabled.
	// Unlike the artefacts above it is *not* deterministic: it records
	// wall time by design.
	OpsTraceFile = "ops.trace.json"
)

// Job is one submitted campaign: its spec, its isolated observability
// plane (own live Hub, own obs tracer), its directory (journal +
// artefacts), and its lifecycle state.
type Job struct {
	id     string
	res    *Resolved
	dir    string
	hub    *live.Hub
	tracer *obs.Tracer

	cancel chan struct{} // closed once to request cancellation
	done   chan struct{} // closed when the job reaches a terminal state

	mu              sync.Mutex
	state           State
	submitted       time.Time
	started         time.Time
	finished        time.Time
	errMsg          string
	quarantined     int
	cancelRequested bool
	shards          map[int]*ShardStatus
}

// ID returns the job's identifier (stable, submission-ordered).
func (j *Job) ID() string { return j.id }

// Dir returns the job's private directory (journal, artefacts, dumps).
func (j *Job) Dir() string { return j.dir }

// Hub returns the job's live telemetry hub. Every event it carries
// belongs to this job alone — hubs are never shared between jobs.
func (j *Job) Hub() *live.Hub { return j.hub }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ShardStatus is the supervisor's view of one shard of a sharded job.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // running | lost | finished | quarantining
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason,omitempty"`
}

// Status is the JSON view of a job, served by GET /jobs and
// GET /jobs/{id}.
type Status struct {
	ID              string                `json:"id"`
	Name            string                `json:"name,omitempty"`
	State           State                 `json:"state"`
	SubmittedAt     time.Time             `json:"submitted_at"`
	StartedAt       *time.Time            `json:"started_at,omitempty"`
	FinishedAt      *time.Time            `json:"finished_at,omitempty"`
	CancelRequested bool                  `json:"cancel_requested,omitempty"`
	Error           string                `json:"error,omitempty"`
	Quarantined     int                   `json:"quarantined,omitempty"`
	Progress        live.ProgressSnapshot `json:"progress"`
	Shards          []ShardStatus         `json:"shards,omitempty"`
	Dir             string                `json:"dir"`
	Artifacts       []string              `json:"artifacts,omitempty"`
}

// Status snapshots the job for the HTTP surface.
func (j *Job) Status() Status {
	j.mu.Lock()
	st := Status{
		ID:              j.id,
		Name:            j.res.Job.Name,
		State:           j.state,
		SubmittedAt:     j.submitted,
		CancelRequested: j.cancelRequested,
		Error:           j.errMsg,
		Quarantined:     j.quarantined,
		Dir:             j.dir,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if len(j.shards) > 0 {
		for _, s := range j.shards {
			st.Shards = append(st.Shards, *s)
		}
		sort.Slice(st.Shards, func(a, b int) bool { return st.Shards[a].Shard < st.Shards[b].Shard })
	}
	j.mu.Unlock()
	// Progress and artefact listing read outside the job lock: the hub has
	// its own synchronisation and stat is I/O.
	st.Progress = j.hub.Progress()
	for _, name := range []string{ResultsFile, TraceFile, MetricsFile, ReportFile, FlightFile, OpsTraceFile} {
		if _, err := os.Stat(filepath.Join(j.dir, name)); err == nil {
			st.Artifacts = append(st.Artifacts, name)
		}
	}
	return st
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to a terminal state and closes Done.
func (j *Job) finish(state State, errMsg string, quarantined int) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.quarantined = quarantined
	j.finished = time.Now()
	run := 0.0
	if !j.started.IsZero() {
		run = j.finished.Sub(j.started).Seconds()
	}
	j.mu.Unlock()
	j.hub.JobFinished(string(state), run)
	close(j.done)
}

// requestCancel closes the cancel channel exactly once. Returns whether
// this call was the one that requested it.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested {
		return false
	}
	j.cancelRequested = true
	close(j.cancel)
	return true
}

// observeShard is the job's shard supervisor Monitor: each lifecycle
// event lands on the job's live hub (so /events streams it) and updates
// the per-shard status served by GET /jobs/{id}.
func (j *Job) observeShard(e shard.Event) {
	j.hub.Shard(e)
	var state string
	switch e.Kind {
	case shard.Started:
		state = "running"
	case shard.Lost:
		state = "lost"
	case shard.Finished:
		state = "finished"
	case shard.Quarantined:
		state = "quarantining"
	default:
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.shards == nil {
		j.shards = map[int]*ShardStatus{}
	}
	s, ok := j.shards[e.Shard]
	if !ok {
		s = &ShardStatus{Shard: e.Shard}
		j.shards[e.Shard] = s
	}
	s.State, s.Reason = state, e.Reason
	if e.Kind == shard.Started {
		s.Attempts = e.Attempt + 1
	}
}
