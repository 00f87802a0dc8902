package campaign

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/ops"
	"repro/internal/suite"
)

// ErrCancelled is the campaign Check hook's abort error when a job's
// cancellation was requested; the runner maps it to StateCancelled.
var ErrCancelled = errors.New("campaign: job cancelled")

// ManagerConfig configures a Manager. The zero value works: jobs land
// under "greenbench-jobs", two run concurrently, logs are discarded.
type ManagerConfig struct {
	// Dir is where per-job directories are created.
	Dir string
	// MaxConcurrent caps jobs in StateRunning (default 2).
	MaxConcurrent int
	// MaxQueued caps jobs in StateQueued; submissions beyond it are
	// rejected with ReasonQueueFull (default 64).
	MaxQueued int
	// FlightCapacity sizes each job's flight recorder (default
	// live.DefaultFlightCapacity; must satisfy live.CheckFlightCapacity).
	FlightCapacity int
	// Logger receives structured job lifecycle records (default: discard).
	Logger *slog.Logger
	// Worker enables sharded jobs; without it they are rejected.
	Worker WorkerFactory
	// HeartbeatTimeout and ShardRetries tune shard supervision for
	// sharded jobs (defaults 30s and 2).
	HeartbeatTimeout time.Duration
	ShardRetries     int
	// Ops, when non-nil, receives operational telemetry: queue depth
	// samples, queue-wait and run-duration observations, and a wall-clock
	// supervisor timeline per sharded job (written to ops.trace.json in
	// the job directory). Nil disables the plane; either way the job's
	// campaign artefacts are byte-identical.
	Ops *ops.Telemetry
}

// Manager owns the job table: submission, queuing, execution with
// per-job isolation, cancellation, and shutdown. Every job runs through
// suite.RunCampaign — the same entry point as the CLI — with its own
// journal directory, tracer and live hub.
type Manager struct {
	cfg ManagerConfig
	log *slog.Logger

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // job IDs in submission order
	queue   []*Job
	running int
	seq     int
	closed  bool
	wg      sync.WaitGroup
}

// NewManager creates the job directory and returns a ready manager.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Dir == "" {
		cfg.Dir = "greenbench-jobs"
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	if cfg.FlightCapacity == 0 {
		cfg.FlightCapacity = live.DefaultFlightCapacity
	}
	if err := live.CheckFlightCapacity(cfg.FlightCapacity); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 30 * time.Second
	}
	if cfg.ShardRetries == 0 {
		cfg.ShardRetries = 2
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating job dir: %w", err)
	}
	// Number jobs after those already on disk, so a restarted daemon
	// never reuses a job's directory and overwrites its artefacts.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: scanning job dir: %w", err)
	}
	seq := 0
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), "job-")
		if n, err := strconv.Atoi(digits); ok && err == nil && n > seq {
			seq = n
		}
	}
	cfg.Ops.Queue().Configure(cfg.MaxConcurrent, cfg.MaxQueued)
	return &Manager{cfg: cfg, log: log, jobs: map[string]*Job{}, seq: seq}, nil
}

// Submit validates the spec, materialises the job's directory and
// isolated observability plane, and queues it. The returned job is
// already visible to Jobs/Get and its hub is live — /events can attach
// while the job is still queued.
func (m *Manager) Submit(js JobSpec) (*Job, error) {
	res, err := js.Resolve()
	if err != nil {
		return nil, err
	}
	if js.Shards > 1 && m.cfg.Worker == nil {
		return nil, specErrf(ReasonNoWorkerFactory,
			"sharded jobs are not available: the server was started without a worker factory")
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, specErrf(ReasonShuttingDown, "server is shutting down")
	}
	queued := len(m.queue)
	if queued >= m.cfg.MaxQueued {
		return nil, specErrf(ReasonQueueFull, "job queue is full (%d queued)", queued)
	}
	m.seq++
	id := fmt.Sprintf("job-%04d", m.seq)
	dir := filepath.Join(m.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating %s: %w", dir, err)
	}
	j := &Job{
		id:        id,
		res:       res,
		dir:       dir,
		hub:       live.NewHub(live.WithFlightCapacity(m.cfg.FlightCapacity)),
		tracer:    obs.NewTracer(),
		cancel:    make(chan struct{}),
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.queue = append(m.queue, j)
	m.log.Info("job submitted", "job", id, "name", js.Name,
		"system", j.res.Spec.Name, "sweep", js.Sweep, "shards", js.Shards, "queued", len(m.queue))
	j.hub.JobQueued(len(m.queue))
	m.cfg.Ops.Queue().JobQueued()
	m.startLocked()
	m.cfg.Ops.Queue().Sample(len(m.queue), m.running)
	return j, nil
}

// startLocked launches queued jobs while capacity allows. Caller holds
// m.mu.
func (m *Manager) startLocked() {
	for m.running < m.cfg.MaxConcurrent && len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		if j.State() != StateQueued { // cancelled while queued
			continue
		}
		m.running++
		m.wg.Add(1)
		go m.runJob(j)
	}
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Get returns the job with that ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// QueueDepth returns how many jobs are waiting to run.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Running returns how many jobs currently hold a concurrency slot.
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// Slots returns the concurrency limit (ManagerConfig.MaxConcurrent
// after defaulting).
func (m *Manager) Slots() int { return m.cfg.MaxConcurrent }

// MaxQueued returns the queue bound (ManagerConfig.MaxQueued after
// defaulting).
func (m *Manager) MaxQueued() int { return m.cfg.MaxQueued }

// Cancel requests cancellation of a job. A queued job is cancelled on
// the spot; a running one aborts at its next cell boundary and dumps
// its flight recorder. Cancelling a finished job is an error
// (ReasonJobFinished); repeating a cancel is not.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, specErrf(ReasonJobNotFound, "no job %q", id)
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state.Terminal() {
		return nil, specErrf(ReasonJobFinished, "job %s already finished (%s)", id, state)
	}
	if state == StateQueued {
		// Finish it here; startLocked skips de-queued non-queued jobs.
		if j.requestCancel() {
			j.finish(StateCancelled, "cancelled while queued", 0)
			m.log.Info("job cancelled", "job", id, "state", "queued")
		}
		return j, nil
	}
	if j.requestCancel() {
		m.log.Info("job cancel requested", "job", id)
	}
	return j, nil
}

// Close stops the manager: queued jobs are cancelled, running jobs get
// a cancellation request, and Close blocks until every runner returns.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	pending := m.queue
	m.queue = nil
	m.mu.Unlock()
	for _, j := range pending {
		if j.requestCancel() {
			j.finish(StateCancelled, "cancelled: server shutting down", 0)
		}
	}
	for _, j := range m.Jobs() {
		if !j.State().Terminal() {
			j.requestCancel()
		}
	}
	m.wg.Wait()
}

// runJob executes one job through suite.RunCampaign and finalises its
// state. It owns the job's slot in the running count.
func (m *Manager) runJob(j *Job) {
	defer m.wg.Done()
	log := m.log.With("job", j.id)
	wait := time.Since(j.submitted).Seconds()
	j.setRunning()
	started := time.Now()
	j.hub.JobStarted(wait)
	m.cfg.Ops.Queue().JobStarted(wait)
	log.Info("job started", "dir", j.dir)

	resultsPath := filepath.Join(j.dir, ResultsFile)
	journalPath := resultsPath + ".journal"
	logf := func(format string, args ...any) { log.Info(fmt.Sprintf(format, args...)) }
	cs := j.res.CampaignSpec()
	cs.JournalPath = journalPath
	cs.Trace = j.tracer
	cs.Live = j.hub
	cs.Logf = logf
	cs.Check = func() error {
		select {
		case <-j.cancel:
			return ErrCancelled
		default:
			return nil
		}
	}
	cs.Render = func(results []*suite.Result) error {
		return Artifacts{
			Results: resultsPath,
			Trace:   filepath.Join(j.dir, TraceFile),
			Metrics: filepath.Join(j.dir, MetricsFile),
			Report:  filepath.Join(j.dir, ReportFile),
			Logf:    logf,
		}.Write(j.tracer, results)
	}
	if j.res.Job.Shards > 1 {
		// The ops plane adds a wall-clock supervision timeline next to
		// the job's deterministic artefacts.
		timeline := ""
		if m.cfg.Ops != nil {
			timeline = filepath.Join(j.dir, OpsTraceFile)
		}
		cs.Supervise = func(axis []int) error {
			return SuperviseShards(ShardPlan{
				JournalPath:      journalPath,
				Campaign:         j.res,
				Axis:             axis,
				Worker:           m.cfg.Worker,
				Traced:           true,
				HeartbeatTimeout: m.cfg.HeartbeatTimeout,
				MaxRetries:       m.cfg.ShardRetries,
				Logger:           log,
				Monitor:          j.observeShard,
				Logf:             logf,
				Timeline:         timeline,
			})
		}
	}

	outcome, err := suite.RunCampaign(cs)
	// Recorded before finish closes Done, so a client that saw the job
	// end also sees it counted on /statusz and /metrics.
	m.cfg.Ops.Queue().JobFinished(time.Since(started).Seconds())
	flightPath := filepath.Join(j.dir, FlightFile)
	switch {
	case err != nil && errors.Is(err, ErrCancelled):
		if dumpErr := j.hub.DumpFlight(flightPath, "cancelled"); dumpErr != nil {
			log.Error("flight dump failed", "error", dumpErr.Error())
		}
		j.finish(StateCancelled, err.Error(), 0)
		log.Info("job cancelled", "state", "running")
	case err != nil:
		if dumpErr := j.hub.DumpFlight(flightPath, "abort: "+err.Error()); dumpErr != nil {
			log.Error("flight dump failed", "error", dumpErr.Error())
		}
		j.finish(StateFailed, err.Error(), 0)
		log.Error("job failed", "error", err.Error())
	case outcome.Quarantined > 0:
		j.finish(StateQuarantined, "", outcome.Quarantined)
		log.Warn("job finished with quarantined cells",
			"quarantined", outcome.Quarantined, "journal", outcome.JournalKept)
	default:
		j.finish(StateDone, "", 0)
		log.Info("job done")
	}

	m.mu.Lock()
	m.running--
	m.startLocked()
	m.cfg.Ops.Queue().Sample(len(m.queue), m.running)
	m.mu.Unlock()
}
