package campaign

import (
	"fmt"
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
	// System names a built-in cluster model (fire, systemg, greengpu,
	// sicortex, testbed). Default fire. Ignored when Spec is set.
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

// SystemByName resolves a built-in cluster model name.
func SystemByName(name string) (*cluster.Spec, error) {
	switch strings.ToLower(name) {
	case "fire":
		return cluster.Fire(), nil
	case "systemg":
		return cluster.SystemG(), nil
	case "greengpu", "gpu":
		return cluster.GreenGPU(), nil
	case "sicortex":
		return cluster.SiCortex(), nil
	case "testbed":
		return cluster.Testbed(), nil
	default:
		return nil, fmt.Errorf("unknown system %q (want fire, systemg, greengpu, sicortex or testbed)", name)
	}
}

// resolved is a JobSpec after validation: everything the runner needs,
// in the deterministic core's terms.
type resolved struct {
	spec       *cluster.Spec
	systemName string // built-in model name ("" when spec was inline)
	placement  cluster.Placement
	benchmarks []string
	retry      suite.RetryPolicy
	cellPause  time.Duration
}

// resolve validates the spec and resolves names against the registries.
// Every failure is a *SpecError so the server can answer with a reason.
func (js *JobSpec) resolve() (*resolved, error) {
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
	if js.TimeoutSeconds < 0 {
		return nil, specErrf(ReasonBadSpec, "timeout_seconds must be non-negative, got %g", js.TimeoutSeconds)
	}
	if js.CellPauseMS < 0 {
		return nil, specErrf(ReasonBadSpec, "cell_pause_ms must be non-negative, got %d", js.CellPauseMS)
	}
	r := &resolved{cellPause: time.Duration(js.CellPauseMS) * time.Millisecond}
	if js.Spec != nil {
		if err := js.Spec.Validate(); err != nil {
			return nil, &SpecError{Reason: ReasonBadSpec, Err: err}
		}
		r.spec = js.Spec
	} else {
		system := js.System
		if system == "" {
			system = "fire"
		}
		spec, err := SystemByName(system)
		if err != nil {
			return nil, &SpecError{Reason: ReasonUnknownSystem, Err: err}
		}
		r.spec = spec
		r.systemName = strings.ToLower(system)
	}
	switch strings.ToLower(js.Placement) {
	case "", "cyclic":
		r.placement = cluster.Cyclic
	case "block":
		r.placement = cluster.Block
	default:
		return nil, specErrf(ReasonBadSpec, "unknown placement %q (want cyclic or block)", js.Placement)
	}
	benches, err := resolveBenchmarks(js.Benchmarks)
	if err != nil {
		return nil, err
	}
	r.benchmarks = benches
	r.retry = suite.RetryPolicy{
		MaxAttempts: js.Retries + 1,
		Backoff:     units.Seconds(30),
		Timeout:     units.Seconds(js.TimeoutSeconds),
	}
	return r, nil
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
			expanded = append(expanded, n)
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
