// Package suite orchestrates full TGI benchmark-suite runs on simulated
// clusters: it executes the HPL, STREAM and IOzone models against a machine
// spec, measures each run with the simulated wall-plug meter, and converts
// the (performance, power trace) pairs into the core.Measurement tuples the
// TGI pipeline consumes. It mirrors the paper's experimental procedure:
// the whole cluster sits behind one meter (Figure 1) and the three
// benchmarks run back to back at each process count.
//
// Beyond the paper's clean-room procedure, the runner is resilient: a
// faults.Plan injects node crashes, stragglers and meter faults; a
// RetryPolicy retries failed benchmarks with exponential backoff in
// virtual time; and a benchmark that exhausts its retries degrades the
// run to a partial result (per-benchmark status, Degraded flag) instead
// of failing it. With no fault plan and a zero RetryPolicy the pipeline
// is bit-for-bit the original deterministic one.
package suite

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
)

// Benchmark names as reported in measurements (see the bench registry).
const (
	BenchHPL    = bench.HPL
	BenchSTREAM = bench.STREAM
	BenchIOzone = bench.IOzone
	BenchBeff   = bench.Beff
)

// PaperOrder lists the paper's three benchmarks in run order — the
// default suite of a Config with no explicit benchmark list.
func PaperOrder() []string { return bench.PaperOrder() }

// Workloads returns every registered workload's canonical name, sorted —
// the vocabulary Config.Benchmarks accepts.
func Workloads() []string { return bench.Names() }

// Config describes one suite run.
type Config struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	// Benchmarks is the explicit ordered benchmark list of this run; names
	// are matched against the workload registry case- and
	// separator-insensitively. Empty means the paper's three (PaperOrder).
	Benchmarks []string
	Meter      power.MeterConfig
	// PowerModel optionally overrides the default power model (ablations).
	PowerModel *power.Model
	// Facility, when set, converts the metered IT power to center-wide
	// power (UPS losses + cooling + fixed overhead) before the efficiency
	// statistics are taken — the paper's future-work extension of TGI to
	// "a center-wide view of the energy efficiency".
	Facility *power.FacilitySpec

	// Faults injects the run's fault scenario (nil or empty: none).
	Faults *faults.Plan
	// Retry governs per-benchmark retries, backoff and timeouts; the zero
	// value runs each benchmark exactly once with no timeout.
	Retry RetryPolicy
	// lookup, when the sweep scheduler sets it, serves a benchmark from
	// the sweep's journal instead of running it. It receives the cell
	// clock and, on a hit, returns the journaled run and the clock the
	// original run stopped at.
	lookup func(bench string, clock units.Seconds) (BenchmarkRun, units.Seconds, bool)
	// checkpoint, when the sweep scheduler sets it, journals each
	// freshly-executed benchmark with the cell clock at its end; an error
	// aborts the run.
	checkpoint func(bench string, run BenchmarkRun, end units.Seconds) error

	// Trace receives the run's observability stream: a span per
	// benchmark, retry attempt, backoff wait and meter window, an event
	// per injected fault and repaired meter window, and campaign metrics.
	// Recording is strictly passive — it reads values the pipeline has
	// already computed and can never perturb results, RNG draws or retry
	// decisions. nil (or a nil *obs.Tracer, or obs.Discard) disables
	// instrumentation; the output is byte-identical either way. A run's
	// clock starts at zero; the sweep scheduler lays the cells of a sweep
	// end to end on the campaign clock when it merges their traces.
	Trace obs.Recorder
}

// Validate checks the configuration before any model runs, so a broken
// config fails with one descriptive error instead of deep inside a
// benchmark model.
func (c *Config) Validate() error {
	if c.Spec == nil {
		return errors.New("suite: config has no cluster spec")
	}
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("suite: invalid spec %q: %w", c.Spec.Name, err)
	}
	if c.Procs < 1 {
		return fmt.Errorf("suite: process count %d must be at least 1", c.Procs)
	}
	if total := c.Spec.TotalCores(); c.Procs > total {
		return fmt.Errorf("suite: %d processes exceed the %d cores of %s",
			c.Procs, total, c.Spec.Name)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := bench.Validate(c.benchmarks()); err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	return nil
}

// DefaultConfig returns the configuration the paper-reproduction sweeps
// use: cyclic placement and a Watts Up? PRO-class meter.
func DefaultConfig(spec *cluster.Spec, procs int) Config {
	return SeededConfig(spec, procs, 17)
}

// SeededConfig is DefaultConfig with an explicit meter-noise seed base,
// used by the noise-robustness analysis to rerun the whole pipeline under
// independent measurement noise.
func SeededConfig(spec *cluster.Spec, procs int, seedBase uint64) Config {
	return Config{
		Spec:      spec,
		Procs:     procs,
		Placement: cluster.Cyclic,
		Meter:     power.WattsUpPRO(uint64(procs)*7919 + seedBase),
	}
}

// Status classifies a benchmark's outcome within a suite run. The zero
// value (first-attempt success) serialises to nothing, keeping fault-free
// output identical to the pre-resilience format.
type Status string

// Benchmark outcomes.
const (
	StatusOK        Status = ""          // succeeded on the first attempt
	StatusRecovered Status = "recovered" // succeeded after one or more retries
	StatusFailed    Status = "failed"    // exhausted its attempts; Measurement is empty
	// StatusQuarantined marks a cell a sharded sweep's supervisor gave up
	// on at the process level: its shard died repeatedly (panic, SIGKILL,
	// heartbeat loss) even after retries and bisection, so the cell was
	// never simulated. Unlike StatusFailed — a legitimate in-simulation
	// outcome — a quarantined cell is an artifact of the execution
	// environment, so a later resume re-runs it instead of trusting it.
	StatusQuarantined Status = "quarantined"
)

// BenchmarkRun is one benchmark's outcome within a suite run.
type BenchmarkRun struct {
	Measurement core.Measurement `json:"measurement"`
	PeakPower   units.Watts      `json:"peak_power"`
	Samples     int              `json:"samples"`

	// Resilience bookkeeping; all zero on a clean first-attempt run.
	Status     Status        `json:"status,omitempty"`
	Retries    int           `json:"retries,omitempty"`
	Error      string        `json:"error,omitempty"`
	WastedTime units.Seconds `json:"wasted_time,omitempty"` // virtual time burnt by failed attempts + backoff
	// Meter-repair accounting (gap-tolerant metering under meter faults).
	GapsFilled       int `json:"gaps_filled,omitempty"`
	OutliersRejected int `json:"outliers_rejected,omitempty"`
}

// OK reports whether the benchmark produced a usable measurement.
func (b *BenchmarkRun) OK() bool {
	return b.Status != StatusFailed && b.Status != StatusQuarantined
}

// Result is a full suite run at one process count.
type Result struct {
	System      string         `json:"system"`
	Procs       int            `json:"procs"`
	ActiveNodes int            `json:"active_nodes"`
	Placement   string         `json:"placement"`
	Runs        []BenchmarkRun `json:"runs"`
	// Degraded marks a partial result: at least one benchmark exhausted
	// its retries. TGI over such a result covers only the surviving
	// benchmarks (core.ComputePartial renormalises the weights).
	Degraded bool     `json:"degraded,omitempty"`
	Warnings []string `json:"warnings,omitempty"`

	// TraceEnd is where the run's clock stopped: all benchmark time,
	// backoff and waste, offset by the cell's start on the campaign clock
	// when the run is part of a sweep. Bookkeeping only, never serialised.
	TraceEnd units.Seconds `json:"-"`
}

// Measurements extracts the core measurements of the surviving benchmarks
// in run order. On a non-degraded run that is every benchmark.
func (r *Result) Measurements() []core.Measurement {
	out := make([]core.Measurement, 0, len(r.Runs))
	for _, b := range r.Runs {
		if b.OK() {
			out = append(out, b.Measurement)
		}
	}
	return out
}

// Benchmarks returns every benchmark name in run order, including failed
// ones — the expected list for partial-TGI evaluation.
func (r *Result) Benchmarks() []string {
	out := make([]string, len(r.Runs))
	for i, b := range r.Runs {
		out[i] = b.Measurement.Benchmark
	}
	return out
}

// Run executes the configured benchmark suite at one process count — the
// paper's three benchmarks unless Config.Benchmarks names another set.
func Run(cfg Config) (*Result, error) {
	return runSuite(cfg, new(cellScratch))
}

// Sweep runs the suite at each process count and returns the results in
// order — the x-axis of the paper's Figures 5 and 6.
func Sweep(spec *cluster.Spec, procs []int) ([]*Result, error) {
	return SweepSeeded(spec, procs, 17)
}

// SweepSeeded is Sweep under an explicit meter-noise seed base.
func SweepSeeded(spec *cluster.Spec, procs []int, seedBase uint64) ([]*Result, error) {
	return RunSweepPlan(SweepPlan{
		Axis: procs,
		Configure: func(p int) (Config, error) {
			return SeededConfig(spec, p, seedBase), nil
		},
	})
}

// FireSweep returns the paper's process-count axis on the Fire cluster:
// one value per node increment, 8…128 in steps of 16 (plus the 8-process
// starting point).
func FireSweep() []int {
	return []int{8, 16, 32, 48, 64, 80, 96, 112, 128}
}

// SaveJSON writes results to path, pretty-printed.
func SaveJSON(path string, results []*Result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadJSON reads results written by SaveJSON. A null entry is an error,
// so every returned result is usable.
func LoadJSON(path string) ([]*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*Result
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, describeJSONError(path, err)
	}
	for i, r := range out {
		if r == nil {
			return nil, fmt.Errorf("suite: %s: entry %d is null, not a suite result", path, i)
		}
	}
	return out, nil
}

// describeJSONError turns encoding/json's errors into one readable line
// that names the file and the position of the damage.
func describeJSONError(path string, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("suite: %s: malformed JSON near byte %d: %v", path, syn.Offset, syn)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return fmt.Errorf("suite: %s: field %q holds %s where %s was expected",
			path, typ.Field, typ.Value, typ.Type)
	}
	return fmt.Errorf("suite: %s: not a results file: %v", path, err)
}
