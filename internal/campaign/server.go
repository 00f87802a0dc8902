package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/ops"
)

// Server is the campaign daemon's HTTP surface:
//
//	POST   /jobs              submit a JobSpec, returns 202 + job status
//	GET    /jobs              list every job (submission order)
//	GET    /jobs/{id}         one job's status (state, progress, ETA, shards)
//	GET    /jobs/{id}/events  the job's live event stream as NDJSON
//	                          (flight-recorder replay, then live)
//	GET    /jobs/{id}/report  the job's run report (text)
//	DELETE /jobs/{id}         cancel (queued: immediate; running: next cell
//	                          boundary + flight-recorder dump)
//	GET    /metrics           Prometheus text: jobs by state, queue depth,
//	                          per-job cell throughput and event drops —
//	                          plus the ops plane's route/tenant/queue/
//	                          runtime series when ops is enabled
//	GET    /statusz           aggregate operational snapshot as JSON
//	                          (uptime, per-route latency, tenants, queue,
//	                          runtime health, jobs by state)
//	GET    /healthz           liveness probe; ?verbose=1 returns JSON with
//	                          queue depth, slot use and accepting state
//	GET    /buildinfo         Go/module build information as JSON
//	/debug/pprof/...          profiling, only with ServerConfig.Pprof
//
// Close stops the server and ends open event streams; it does not touch
// the manager, so jobs keep running until Manager.Close.
type Server struct {
	*live.HTTPServer
	m     *Manager
	log   *slog.Logger
	ops   *ops.Telemetry
	start time.Time
}

// ServerConfig configures a campaign server.
type ServerConfig struct {
	// Addr is the listen address (":0" picks an ephemeral port).
	Addr string
	// Manager is the job table the server fronts (required).
	Manager *Manager
	// Logger receives structured request/lifecycle records (default:
	// the manager's logger).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Ops, when non-nil, wraps every route in request instrumentation
	// (counts, status codes, in-flight, latency, per-tenant) and enables
	// the ops sections of /metrics and /statusz. Typically the same
	// bundle handed to the manager.
	Ops *ops.Telemetry
}

// NewServer starts serving and returns once the listener is bound, so
// Addr is immediately valid.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Manager == nil {
		return nil, fmt.Errorf("campaign: server needs a manager")
	}
	log := cfg.Logger
	if log == nil {
		log = cfg.Manager.log
	}
	hs, err := live.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	s := &Server{HTTPServer: hs, m: cfg.Manager, log: log, ops: cfg.Ops, start: time.Now()}
	mux := http.NewServeMux()
	// Each route is wrapped in the ops middleware under its mux pattern —
	// a bounded label set, never the raw URL. On a nil ops bundle the
	// wrapper is the identity, so registration has no enabled/disabled
	// branch. (Go 1.22 has no Request.Pattern, hence the explicit label.)
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, cfg.Ops.HTTP().Handler(pattern, h))
	}
	handle("GET /{$}", s.handleIndex)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /buildinfo", s.handleBuildinfo)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /statusz", s.handleStatusz)
	handle("POST /jobs", s.handleSubmit)
	handle("GET /jobs", s.handleList)
	handle("GET /jobs/{id}", s.handleGet)
	handle("GET /jobs/{id}/events", s.handleEvents)
	handle("GET /jobs/{id}/report", s.handleReport)
	handle("DELETE /jobs/{id}", s.handleCancel)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.Serve(mux)
	return s, nil
}

// errorBody is every non-2xx response: a message for humans and a
// stable reason for machines.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q,"reason":"internal"}`+"\n", err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, reason, msg string) {
	writeJSON(w, code, errorBody{Error: msg, Reason: reason})
}

// writeSpecError maps a *SpecError to its HTTP status.
func writeSpecError(w http.ResponseWriter, err error) {
	var se *SpecError
	if !errors.As(err, &se) {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	code := http.StatusBadRequest
	switch se.Reason {
	case ReasonJobNotFound:
		code = http.StatusNotFound
	case ReasonJobFinished:
		code = http.StatusConflict
	case ReasonQueueFull:
		code = http.StatusTooManyRequests
	case ReasonShuttingDown:
		code = http.StatusServiceUnavailable
	}
	writeError(w, code, se.Reason, se.Error())
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `greenbench campaign server

POST   /jobs              submit a job spec (JSON)
GET    /jobs              list jobs
GET    /jobs/{id}         job status
GET    /jobs/{id}/events  job event stream (NDJSON)
GET    /jobs/{id}/report  job run report (text)
DELETE /jobs/{id}         cancel a job
GET    /metrics           Prometheus exposition
GET    /statusz           operational snapshot (JSON)
GET    /healthz           liveness probe (?verbose=1 for JSON detail)
GET    /buildinfo         build information (JSON)
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("verbose") == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	depth, running := s.m.QueueDepth(), s.m.Running()
	slots, maxQueued := s.m.Slots(), s.m.MaxQueued()
	writeJSON(w, http.StatusOK, struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Slots      int    `json:"slots"`
		SlotsInUse int    `json:"slots_in_use"`
		MaxQueued  int    `json:"max_queued"`
		// Accepting: a new submission would be admitted rather than
		// rejected with ReasonQueueFull. Saturated: every concurrency
		// slot is busy, so an admitted job would queue.
		Accepting bool `json:"accepting"`
		Saturated bool `json:"saturated"`
	}{
		Status: "ok", QueueDepth: depth, Slots: slots, SlotsInUse: running,
		MaxQueued: maxQueued, Accepting: depth < maxQueued, Saturated: running >= slots,
	})
}

// handleStatusz aggregates the operational picture in one JSON
// document: job counts, queue state, and — when the ops plane is on —
// per-route HTTP stats, tenants, queue histograms and the latest
// runtime self-sample.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	byState := map[string]int{}
	for _, j := range s.m.Jobs() {
		byState[string(j.State())]++
	}
	writeJSON(w, http.StatusOK, struct {
		Now           time.Time        `json:"now"`
		UptimeSeconds float64          `json:"uptime_seconds"`
		JobsByState   map[string]int   `json:"jobs_by_state"`
		QueueDepth    int              `json:"queue_depth"`
		Ops           *ops.StatuszSnap `json:"ops,omitempty"`
		OpsEnabled    bool             `json:"ops_enabled"`
	}{
		Now:           now,
		UptimeSeconds: now.Sub(s.start).Seconds(),
		JobsByState:   byState,
		QueueDepth:    s.m.QueueDepth(),
		Ops:           s.ops.Statusz(now),
		OpsEnabled:    s.ops != nil,
	})
}

func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	type module struct {
		Path    string `json:"path"`
		Version string `json:"version,omitempty"`
	}
	out := struct {
		GoVersion string            `json:"go_version"`
		Main      module            `json:"main"`
		Settings  map[string]string `json:"settings,omitempty"`
	}{}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out.GoVersion = bi.GoVersion
		out.Main = module{Path: bi.Main.Path, Version: bi.Main.Version}
		out.Settings = map[string]string{}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOOS", "GOARCH":
				out.Settings[kv.Key] = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// maxSpecBytes bounds a POST /jobs body; a job spec is small by
// construction, and the cap keeps a misdirected upload from ballooning
// the daemon.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadJSON, "reading body: "+err.Error())
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, ReasonBadSpec,
			fmt.Sprintf("job spec exceeds %d bytes", maxSpecBytes))
		return
	}
	var js JobSpec
	if err := json.Unmarshal(body, &js); err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadJSON, "parsing job spec: "+err.Error())
		return
	}
	j, err := s.m.Submit(js)
	if err != nil {
		writeSpecError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.m.Jobs()
	out := struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: make([]Status, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ReasonJobNotFound, fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeSpecError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	b, err := os.ReadFile(filepath.Join(j.Dir(), ReportFile))
	if err != nil {
		writeError(w, http.StatusNotFound, ReasonReportNotReady,
			fmt.Sprintf("job %s has no report yet (state %s)", j.ID(), j.State()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b)
}

// handleEvents streams one job's events as NDJSON: the flight
// recorder's retained prefix, then the live feed. The stream ends on
// its own once the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if !s.StreamEvents(w, r, j.Hub(), j.Done()) {
		writeError(w, http.StatusServiceUnavailable, ReasonShuttingDown, "server shutting down")
	}
}

// handleMetrics renders the server-level Prometheus exposition: job
// counts by state, queue depth, and per-job cell/event counters. Jobs
// iterate in submission order and states in lifecycle order, so the
// exposition is stable run to run.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	jobs := s.m.Jobs()
	byState := map[State]int{}
	for _, j := range jobs {
		byState[j.State()]++
	}
	var p obs.PromWriter
	p.Type("campaign_jobs", "gauge")
	for _, st := range States() {
		p.Uint("campaign_jobs", uint64(byState[st]), "state", string(st))
	}
	p.Type("campaign_queue_depth", "gauge")
	p.Uint("campaign_queue_depth", uint64(s.m.QueueDepth()))
	p.Type("campaign_jobs_total", "counter")
	p.Uint("campaign_jobs_total", uint64(len(jobs)))
	// One progress snapshot per job serves all four per-job families,
	// each rendered as its # TYPE line followed by its own samples.
	progs := make([]live.ProgressSnapshot, len(jobs))
	var dropped uint64
	for i, j := range jobs {
		progs[i] = j.Hub().Progress()
		dropped += progs[i].EventsDropped
	}
	perJob := func(name string, value func(live.ProgressSnapshot) uint64) {
		p.Type(name, "gauge")
		for i, j := range jobs {
			p.Uint(name, value(progs[i]), "job", j.ID())
		}
	}
	perJob("campaign_job_cells_total", func(s live.ProgressSnapshot) uint64 { return uint64(s.CellsTotal) })
	perJob("campaign_job_cells_done", func(s live.ProgressSnapshot) uint64 { return uint64(s.CellsDone) })
	perJob("campaign_job_events_published", func(s live.ProgressSnapshot) uint64 { return s.EventsPublished })
	perJob("campaign_job_events_dropped", func(s live.ProgressSnapshot) uint64 { return s.EventsDropped })
	p.Type("campaign_events_dropped_total", "counter")
	p.Uint("campaign_events_dropped_total", dropped)
	p.WriteTo(w)
	// The ops plane appends its route/tenant/queue/runtime series; a nil
	// bundle appends nothing.
	ops.WritePrometheus(w, s.ops)
}
