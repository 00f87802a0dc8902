package campaign

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/suite"
	"repro/internal/units"
)

// JobSpec is the JSON body of POST /jobs: one campaign, described the
// way the greenbench CLI flags would describe it. The zero value (plus a
// system) is a valid single-point run of the paper's suite.
type JobSpec struct {
	// Name is a free-form label echoed back in job listings.
	Name string `json:"name,omitempty"`
	// System names a built-in cluster model (see cluster.Names). Default
	// fire. Ignored when Spec is set.
	System string `json:"system,omitempty"`
	// Spec is an inline machine spec, overriding System.
	Spec *cluster.Spec `json:"spec,omitempty"`
	// Sweep runs the paper's process sweep instead of one point.
	Sweep bool `json:"sweep,omitempty"`
	// Procs is the single-run process count (0: all cores).
	Procs int `json:"procs,omitempty"`
	// Benchmarks is the ordered benchmark list; each entry is a workload
	// name, "paper" or "extended" (empty: the paper's three).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Placement is the process placement policy: cyclic (default) or block.
	Placement string `json:"placement,omitempty"`
	// Workers caps concurrently-running sweep cells (0: one worker).
	Workers int `json:"workers,omitempty"`
	// Shards runs a sweep as this many supervised worker processes
	// (needs the manager to have a worker factory).
	Shards int `json:"shards,omitempty"`
	// Retries is the per-benchmark retry budget after injected failures.
	Retries int `json:"retries,omitempty"`
	// TimeoutSeconds is the per-benchmark virtual-time limit (0: none).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Faults is an inline fault plan to inject (see internal/faults).
	Faults *faults.Plan `json:"faults,omitempty"`
	// CellPauseMS pauses this many wall-clock milliseconds before each
	// cell — demo/e2e pacing; virtual results are unaffected.
	CellPauseMS int `json:"cell_pause_ms,omitempty"`
}

// Spec-error reasons, machine-readable in the server's 4xx bodies.
const (
	ReasonBadJSON          = "bad_json"
	ReasonBadSpec          = "bad_spec"
	ReasonUnknownSystem    = "unknown_system"
	ReasonUnknownBenchmark = "unknown_benchmark"
	ReasonNoWorkerFactory  = "no_worker_factory"
	ReasonJobNotFound      = "job_not_found"
	ReasonJobFinished      = "job_finished"
	ReasonReportNotReady   = "report_not_ready"
	ReasonQueueFull        = "queue_full"
	ReasonShuttingDown     = "shutting_down"
)

// SpecError is a job-spec rejection: a human-readable message plus a
// machine-readable reason the server maps to a structured 4xx body.
type SpecError struct {
	Reason string
	Err    error
}

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

func specErrf(reason, format string, args ...any) *SpecError {
	return &SpecError{Reason: reason, Err: fmt.Errorf(format, args...)}
}

// Resolved is a JobSpec after validation, in the deterministic core's
// terms. It is the one place a campaign is settled: the greenbench CLI
// builds a JobSpec from its flags and the daemon decodes one from
// POST /jobs, and both resolve it here and run it through CampaignSpec.
type Resolved struct {
	// Job is the spec as given.
	Job JobSpec
	// Spec is the cluster under test: the inline spec or the named model.
	Spec *cluster.Spec
	// System is the built-in model's name ("" when Spec was inline).
	System     string
	Placement  cluster.Placement
	Benchmarks []string
	// CellPause is the wall-clock pause before each cell. Resolve sets it
	// from CellPauseMS; the CLI's -cellpause overrides it at full
	// time.Duration precision.
	CellPause time.Duration
}

// Resolve validates the spec and resolves names against the registries.
// Every failure is a *SpecError so the server can answer with a reason.
func (js JobSpec) Resolve() (*Resolved, error) {
	if js.Procs < 0 {
		return nil, specErrf(ReasonBadSpec, "procs must be non-negative, got %d (0 means all cores)", js.Procs)
	}
	if js.Workers < 0 {
		return nil, specErrf(ReasonBadSpec, "workers must be non-negative, got %d (0 runs cells on one worker)", js.Workers)
	}
	if js.Shards < 0 {
		return nil, specErrf(ReasonBadSpec, "shards must be non-negative, got %d (0 runs in-process)", js.Shards)
	}
	if js.Shards > 1 && !js.Sweep {
		return nil, specErrf(ReasonBadSpec, "shards=%d needs sweep=true: only a process sweep can be partitioned", js.Shards)
	}
	if js.Retries < 0 {
		return nil, specErrf(ReasonBadSpec, "retries must be non-negative, got %d", js.Retries)
	}
	if js.Retries == math.MaxInt {
		return nil, specErrf(ReasonBadSpec, "retries=%d is too large: the attempt budget, retries+1, overflows", js.Retries)
	}
	if !(js.TimeoutSeconds >= 0) { // NaN fails this too
		return nil, specErrf(ReasonBadSpec, "timeout_seconds must be non-negative, got %g", js.TimeoutSeconds)
	}
	if err := js.retryPolicy().Validate(); err != nil {
		return nil, &SpecError{Reason: ReasonBadSpec, Err: err}
	}
	if js.CellPauseMS < 0 {
		return nil, specErrf(ReasonBadSpec, "cell_pause_ms must be non-negative, got %d", js.CellPauseMS)
	}
	if err := js.Faults.Validate(); err != nil {
		return nil, &SpecError{Reason: ReasonBadSpec, Err: err}
	}
	r := &Resolved{Job: js, CellPause: time.Duration(js.CellPauseMS) * time.Millisecond}
	if js.Spec != nil {
		if err := js.Spec.Validate(); err != nil {
			return nil, &SpecError{Reason: ReasonBadSpec, Err: err}
		}
		r.Spec = js.Spec
	} else {
		system := js.System
		if system == "" {
			system = "fire"
		}
		spec, err := cluster.ByName(system)
		if err != nil {
			return nil, &SpecError{Reason: ReasonUnknownSystem, Err: err}
		}
		r.Spec = spec
		r.System = strings.ToLower(system)
	}
	if cores := r.Spec.TotalCores(); !js.Sweep && js.Procs > cores {
		return nil, specErrf(ReasonBadSpec, "procs=%d exceeds the %d cores of %s (0 means all cores)", js.Procs, cores, r.Spec.Name)
	}
	switch strings.ToLower(js.Placement) {
	case "", "cyclic":
		r.Placement = cluster.Cyclic
	case "block":
		r.Placement = cluster.Block
	default:
		return nil, specErrf(ReasonBadSpec, "unknown placement %q (want cyclic or block)", js.Placement)
	}
	benches, err := resolveBenchmarks(js.Benchmarks)
	if err != nil {
		return nil, err
	}
	r.Benchmarks = benches
	// Every failed attempt advances the campaign clock, which the trace
	// writes in microseconds and the metrics sum over every benchmark and
	// cell. Refuse a campaign whose clock could leave float64's range if
	// all of its attempts failed.
	cells := 1
	if js.Sweep {
		cells = len(suite.DefaultAxis(r.Spec))
	}
	worst := float64(js.retryPolicy().WorstCase()) * float64(cells*len(benches)) * 1e6
	if math.IsInf(worst, 0) {
		return nil, specErrf(ReasonBadSpec,
			"retries=%d with timeout_seconds=%g over %d cell(s) of %d benchmark(s) could run the campaign clock past float64's range if every attempt failed",
			js.Retries, js.TimeoutSeconds, cells, len(benches))
	}
	return r, nil
}

// CampaignSpec is the one translation of a resolved campaign into a
// suite.CampaignSpec, shared by the CLI and Manager.runJob. The front
// end adds where the campaign journals and renders, and its own hooks.
func (r *Resolved) CampaignSpec() suite.CampaignSpec {
	cs := suite.CampaignSpec{
		Spec:       r.Spec,
		Placement:  r.Placement,
		Benchmarks: r.Benchmarks,
		Faults:     r.Job.Faults,
		Retry:      r.Job.retryPolicy(),
		Sweep:      r.Job.Sweep,
		Procs:      r.Job.Procs,
		Workers:    r.Job.Workers,
	}
	if pause := r.CellPause; pause > 0 {
		cs.PauseCell = func() { time.Sleep(pause) }
	}
	return cs
}

// retryPolicy is the spec's retry budget as the suite runs it. Retries
// wait through a 30-virtual-second backoff (doubling per retry), the
// reboot/drain delay of a real campaign.
func (js JobSpec) retryPolicy() suite.RetryPolicy {
	return suite.RetryPolicy{
		MaxAttempts: js.Retries + 1,
		Backoff:     units.Seconds(30),
		Timeout:     units.Seconds(js.TimeoutSeconds),
	}
}

// resolveBenchmarks expands "paper"/"extended" entries and resolves the
// rest against the workload registry, preserving order.
func resolveBenchmarks(names []string) ([]string, error) {
	if len(names) == 0 {
		return suite.PaperOrder(), nil
	}
	var expanded []string
	for _, n := range names {
		switch strings.ToLower(strings.TrimSpace(n)) {
		case "":
		case "paper":
			expanded = append(expanded, suite.PaperOrder()...)
		case "extended":
			expanded = append(expanded, suite.ExtendedOrder...)
		default:
			expanded = append(expanded, strings.TrimSpace(n))
		}
	}
	if len(expanded) == 0 {
		return suite.PaperOrder(), nil
	}
	resolved, err := bench.Resolve(expanded)
	if err != nil {
		return nil, &SpecError{Reason: ReasonUnknownBenchmark, Err: err}
	}
	return resolved, nil
}
