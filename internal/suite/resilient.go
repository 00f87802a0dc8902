package suite

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/units"
)

// RetryPolicy governs how the suite runner reacts to injected faults and
// runaway benchmarks. All waiting happens in virtual time — the policy
// shapes the simulated campaign, not wall-clock execution.
type RetryPolicy struct {
	// MaxAttempts bounds how often one benchmark is tried; values below 1
	// mean a single attempt (no retries).
	MaxAttempts int
	// Backoff is the virtual-time delay before the first retry; each
	// further retry multiplies it by BackoffFactor (default 2). The delay
	// is charged to the benchmark's WastedTime, modelling the node
	// reboot/drain a real campaign waits through.
	Backoff       units.Seconds
	BackoffFactor float64
	// Timeout fails an attempt whose simulated runtime exceeds it (0: no
	// limit) — the straggler guard of a real suite harness.
	Timeout units.Seconds
}

// Validate checks the policy's parameters, including that the backoff
// waits of a benchmark that fails every attempt sum to a finite virtual
// time: an infinite wait would reach the results as a WastedTime JSON
// cannot encode.
func (p RetryPolicy) Validate() error {
	switch {
	case p.Backoff < 0:
		return fmt.Errorf("suite: negative retry backoff %v", p.Backoff)
	case p.BackoffFactor < 0:
		return fmt.Errorf("suite: negative backoff factor %v", p.BackoffFactor)
	case p.Timeout < 0:
		return fmt.Errorf("suite: negative timeout %v", p.Timeout)
	}
	if total := p.backoffTotal(); math.IsInf(total, 0) || math.IsNaN(total) {
		return fmt.Errorf("suite: %d retries with backoff %v growing ×%v wait %v in total, beyond the virtual clock's range",
			p.attempts()-1, p.Backoff, p.factor(), total)
	}
	return nil
}

// backoffTotal sums the backoff waits before every retry of the attempt
// budget. The waits form a geometric series, so the sum is taken in
// closed form: the budget may be as large as an int allows.
func (p RetryPolicy) backoffTotal() float64 {
	retries := p.attempts() - 1
	if retries == 0 {
		return 0
	}
	b, f := float64(p.Backoff), p.factor()
	if f == 1 {
		return b * float64(retries)
	}
	return b * (math.Pow(f, float64(retries)) - 1) / (f - 1)
}

// WorstCase bounds the virtual time one benchmark charges to the
// campaign clock when every attempt of its budget fails: every backoff
// wait plus Timeout per attempt. (A crash charges the model's runtime up
// to the crash instead, which the bound leaves out.)
func (p RetryPolicy) WorstCase() units.Seconds {
	return units.Seconds(p.backoffTotal() + float64(p.attempts())*float64(p.Timeout))
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// factor returns the effective backoff growth factor.
func (p RetryPolicy) factor() float64 {
	if p.BackoffFactor == 0 {
		return 2
	}
	return p.BackoffFactor
}

// delay returns the virtual-time backoff charged before attempt (1-based
// retry index).
func (p RetryPolicy) delay(attempt int) units.Seconds {
	return p.Backoff * units.Seconds(math.Pow(p.factor(), float64(attempt-1)))
}

// simulated is what a benchmark model hands the measurement stage.
type simulated struct {
	metric  string
	perf    float64
	profile *cluster.LoadProfile
	// engine, when the model ran on the discrete-event kernel, carries
	// its work stats for the attempt's trace span.
	engine *sim.Stats
}

// benchStep is one benchmark of a suite: a name, its metric unit, and
// the registered workload whose performance model it runs. Steps carry
// no per-run state — the run's environment is threaded in at simulate
// time — so one assembled step list serves every cell of a sweep.
type benchStep struct {
	name   string
	metric string
	w      bench.Workload
	// attemptHist names the step's attempt-duration histogram,
	// attemptSecondsPrefix plus the name.
	attemptHist string
}

// simulate runs the step's performance model against a (possibly
// fault-degraded) spec under cfg's environment, building its load
// profile in work: the profile lasts until the next simulate on work.
func (st *benchStep) simulate(cfg *Config, spec *cluster.Spec, work *bench.Scratch) (simulated, error) {
	sm, err := st.w.Simulate(spec, bench.Env{Procs: cfg.Procs, Placement: cfg.Placement, Scratch: work})
	if err != nil {
		return simulated{}, err
	}
	return simulated{perf: sm.Perf, profile: sm.Profile, engine: sm.Engine}, nil
}

// runSuite executes cfg's suite under its fault plan and retry policy,
// recycling sc's buffers. Every suite run takes this path: the sweep
// scheduler passes a worker's scratch, Run a spare one.
func runSuite(cfg Config, sc *cellScratch) (*Result, error) {
	steps, err := sc.stepsFor(&cfg)
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The benchmark models see the degraded fabric; the meter sees the
	// injected measurement faults. With an empty plan both are the
	// originals and the pipeline is bit-for-bit the fault-free one.
	spec := cfg.Faults.ApplySpec(cfg.Spec)
	model := cfg.PowerModel
	if model == nil {
		// The cached default model is reused only while the spec pointer
		// is unchanged (an injected fault plan derives a new spec, which
		// forces a rebuild). NewModel's output is a pure function of the
		// spec and nothing here mutates it.
		if sc.model == nil || sc.model.Spec != spec {
			if sc.model, err = power.NewModel(spec); err != nil {
				return nil, err
			}
		}
		model = sc.model
	}
	// A recycled meter is reconfigured, which restores NewMeter
	// semantics, so its traces are bit-identical to a fresh meter's.
	meterCfg := cfg.Faults.ApplyMeter(cfg.Meter)
	if sc.meter == nil {
		if sc.meter, err = power.NewMeter(meterCfg); err != nil {
			return nil, err
		}
		// The runner folds each sampled trace into scalars before the
		// next measurement, so buffer recycling is safe here.
		sc.meter.ReuseSampleBuffer()
	} else if err := sc.meter.Reconfigure(meterCfg); err != nil {
		return nil, err
	}
	meter := sc.meter
	if sc.dist, err = spec.DistributeInto(cfg.Procs, cfg.Placement, sc.dist); err != nil {
		return nil, err
	}

	rec := cfg.Trace
	meter.Instrument(rec)
	var clock units.Seconds

	res := &Result{
		System:      spec.Name,
		Procs:       cfg.Procs,
		ActiveNodes: cluster.ActiveNodes(sc.dist),
		Placement:   cfg.Placement.String(),
		Runs:        make([]BenchmarkRun, 0, len(steps)),
	}
	for _, st := range steps {
		if cfg.lookup != nil {
			// A journal hit also moves the clock to where the original run
			// left it, so the rest of the cell lands where it did then
			// (the scheduler replays the cached benchmark's spans).
			if cached, end, ok := cfg.lookup(st.name, clock); ok {
				res.Runs = append(res.Runs, cached)
				clock = end
				continue
			}
		}
		benchStart := clock
		run, err := runStep(&cfg, spec, model, meter, meterCfg, sc, st, &clock)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.Span(obs.Span{
				Track: st.name,
				Name:  st.name,
				Start: benchStart,
				End:   clock,
				Attrs: []obs.Attr{
					obs.Str("status", statusLabel(run.Status)),
					obs.Int("retries", run.Retries),
					obs.Secs("wasted", run.WastedTime),
					obs.F64("energy_joules", float64(run.Measurement.Energy)),
				},
			})
			rec.Count("suite.benchmarks", 1)
			rec.Count("suite.retries", float64(run.Retries))
			rec.Count("suite.wasted_seconds", float64(run.WastedTime))
			rec.Count("suite.energy_joules", float64(run.Measurement.Energy))
			switch run.Status {
			case StatusRecovered:
				rec.Count("suite.benchmarks_recovered", 1)
			case StatusFailed:
				rec.Count("suite.benchmarks_failed", 1)
			}
		}
		if cfg.checkpoint != nil {
			if err := cfg.checkpoint(st.name, run, clock); err != nil {
				return nil, fmt.Errorf("suite: checkpointing %s: %w", st.name, err)
			}
		}
		res.Runs = append(res.Runs, run)
	}
	for _, b := range res.Runs {
		if !b.OK() {
			res.Degraded = true
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"%s failed after %d attempt(s): %s",
				b.Measurement.Benchmark, b.Retries+1, b.Error))
		}
	}
	res.TraceEnd = clock
	if rec != nil {
		rec.Span(obs.Span{
			Track: obs.TrackSuite,
			Name:  sc.runName(cfg.Procs),
			End:   clock,
			Attrs: []obs.Attr{
				obs.Str("system", res.System),
				obs.Int("procs", res.Procs),
				obs.Str("placement", res.Placement),
				obs.Str("degraded", strconv.FormatBool(res.Degraded)),
			},
		})
		rec.Count("suite.runs", 1)
	}
	return res, nil
}

// statusLabel renders a Status for span attributes (the zero value
// serialises to nothing in JSON but a trace wants an explicit word).
func statusLabel(s Status) string {
	if s == StatusOK {
		return "ok"
	}
	return string(s)
}

// runStep executes one benchmark with retries. Injected faults (crashes,
// timeouts, event-budget blowouts) are retryable and, once the attempt
// budget is exhausted, degrade to a failed BenchmarkRun; model and
// measurement errors remain hard errors — they indicate a broken
// configuration, not an injected failure.
//
// clock is the campaign's virtual-time cursor: every attempt, backoff
// wait and crash advances it by exactly the time the accounting charges,
// so the recorded spans tile the timeline the way the simulated campaign
// spent it.
func runStep(cfg *Config, spec *cluster.Spec, model *power.Model,
	meter *power.Meter, meterCfg power.MeterConfig, sc *cellScratch,
	st benchStep, clock *units.Seconds) (BenchmarkRun, error) {
	rec := cfg.Trace
	var wasted units.Seconds
	var last attemptFailure
	attempts := cfg.Retry.attempts()
	// attemptSpan charges elapsed to the campaign clock and records the
	// attempt's span with its outcome.
	attemptSpan := func(attempt int, elapsed units.Seconds, outcome string, extra ...obs.Attr) {
		if rec != nil {
			attrs := make([]obs.Attr, 2, 2+len(extra))
			attrs[0] = obs.Str("outcome", outcome)
			attrs[1] = obs.Int("procs", cfg.Procs)
			rec.Span(obs.Span{
				Track: st.name,
				Name:  sc.attemptName(attempt + 1),
				Start: *clock,
				End:   *clock + elapsed,
				Attrs: append(attrs, extra...),
			})
			rec.Count("suite.attempts", 1)
			rec.Observe("suite.attempt_seconds", float64(elapsed))
			// Per-benchmark histogram: the run report surfaces its
			// p50/p95/p99 per benchmark row.
			rec.Observe(st.attemptHist, float64(elapsed))
		}
		*clock += elapsed
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := cfg.Retry.delay(attempt)
			wasted += delay
			if rec != nil {
				rec.Span(obs.Span{
					Track: st.name,
					Name:  obs.NameBackoff,
					Start: *clock,
					End:   *clock + delay,
					Attrs: []obs.Attr{obs.Int("before_attempt", attempt+1)},
				})
			}
			*clock += delay
		}
		sm, err := st.simulate(cfg, spec, &sc.work)
		if err != nil {
			if errors.Is(err, sim.ErrEventLimit) {
				// An exhausted event budget is a timeout, not a bug.
				wasted += cfg.Retry.Timeout
				last = attemptFailure{attempt: attempt, err: err}
				attemptSpan(attempt, cfg.Retry.Timeout, "event-budget", obs.Str("error", err.Error()))
				continue
			}
			return BenchmarkRun{}, fmt.Errorf("suite: %s: %w", st.name, err)
		}
		inj := cfg.Faults.Draw(st.name, cfg.Procs, attempt, sm.profile.Duration(), spec.Nodes)
		if inj.Slowdown > 1 {
			sm.perf /= inj.Slowdown
			sm.profile = stretchProfile(sm.profile, inj.Slowdown)
		}
		dur := sm.profile.Duration()
		inj.Record(rec, st.name, attempt, *clock, dur)
		if cfg.Retry.Timeout > 0 && dur > cfg.Retry.Timeout {
			wasted += cfg.Retry.Timeout
			last = attemptFailure{attempt: attempt, dur: dur, timeout: cfg.Retry.Timeout, slowdown: inj.Slowdown}
			attemptSpan(attempt, cfg.Retry.Timeout, "timeout", obs.F64("slowdown", inj.Slowdown))
			continue
		}
		if inj.CrashAt >= 0 && inj.CrashAt < dur {
			wasted += inj.CrashAt
			last = attemptFailure{attempt: attempt, dur: dur, node: inj.CrashNode, crashAt: inj.CrashAt}
			attemptSpan(attempt, inj.CrashAt, "crashed", obs.Int("node", inj.CrashNode))
			continue
		}
		meter.SetOrigin(*clock)
		run, err := measureStep(cfg, model, meter, meterCfg, &sc.repairer, st, sm, *clock)
		if err != nil {
			return BenchmarkRun{}, err
		}
		run.Retries = attempt
		run.WastedTime = wasted
		if attempt > 0 {
			run.Status = StatusRecovered
		}
		if rec == nil {
			// An untraced run builds no attributes at all.
			attemptSpan(attempt, dur, "ok")
			return run, nil
		}
		var okAttrs [6]obs.Attr // attemptSpan copies them
		extra := append(okAttrs[:0],
			obs.F64("perf", run.Measurement.Performance),
			obs.Str("metric", run.Measurement.Metric),
			obs.F64("mean_watts", float64(run.Measurement.Power)))
		if sm.engine != nil {
			extra = append(extra,
				obs.Int64("engine_events", int64(sm.engine.Events)),
				obs.Int("engine_peak_queue", sm.engine.PeakQueueDepth),
				obs.Int64("engine_headroom", int64(sm.engine.Headroom)))
		}
		attemptSpan(attempt, dur, "ok", extra...)
		return run, nil
	}
	return BenchmarkRun{
		Measurement: failedMeasurement(st),
		Status:      StatusFailed,
		Retries:     attempts - 1,
		WastedTime:  wasted,
		Error:       last.String(),
	}, nil
}

// attemptFailure is why a benchmark's latest attempt failed: an
// exhausted event budget (err set), a timeout (timeout set) or a node
// crash. Its text is read only when the benchmark runs out of attempts,
// so it is formatted then.
type attemptFailure struct {
	attempt      int
	err          error
	dur, timeout units.Seconds
	slowdown     float64
	node         int
	crashAt      units.Seconds
}

func (f attemptFailure) String() string {
	switch {
	case f.err != nil:
		return fmt.Sprintf("attempt %d: event budget exhausted: %v", f.attempt+1, f.err)
	case f.timeout > 0:
		return fmt.Sprintf("attempt %d: runtime %v exceeds timeout %v (slowdown ×%.2f)",
			f.attempt+1, f.dur, f.timeout, f.slowdown)
	default:
		return fmt.Sprintf("attempt %d: node %d crashed at t=%v of %v",
			f.attempt+1, f.node, f.crashAt, f.dur)
	}
}

// measureStep meters a successful attempt: sample the load profile, repair
// the trace (with repairer) when the fault plan perturbs the measurement
// path, optionally lift to facility power, and fold into a measurement.
// When nothing transforms the trace, the meter folds its samples
// directly and no trace is built. origin is where the attempt sits on
// the campaign's virtual-time axis; repair events are placed relative
// to it.
func measureStep(cfg *Config, model *power.Model, meter *power.Meter,
	meterCfg power.MeterConfig, repairer *series.Repairer, st benchStep,
	sm simulated, origin units.Seconds) (BenchmarkRun, error) {
	if !cfg.Faults.MeterFaulty() && cfg.Facility == nil {
		fold, err := meter.MeasureFold(model, sm.profile)
		if err != nil {
			return BenchmarkRun{}, fmt.Errorf("suite: metering %s: %w", st.name, err)
		}
		return fromFold(fold, st.name, st.metric, sm.perf, sm.profile.Duration())
	}
	trace, err := meter.Measure(model, sm.profile)
	if err != nil {
		return BenchmarkRun{}, fmt.Errorf("suite: metering %s: %w", st.name, err)
	}
	var rep series.RepairReport
	if cfg.Faults.MeterFaulty() {
		if trace, rep, err = repairer.Repair(trace, meterCfg.Interval, 0); err != nil {
			return BenchmarkRun{}, fmt.Errorf("suite: repairing %s trace: %w", st.name, err)
		}
		if rec := cfg.Trace; rec != nil {
			if rep.GapsFilled > 0 || rep.OutliersRejected > 0 {
				// One event per repaired window, at its start: repair
				// never moves a trace's first sample.
				rec.Event(obs.Event{
					Track: obs.TrackMeter,
					Name:  obs.EventRepair,
					At:    origin + trace.At(0).At,
					Attrs: []obs.Attr{
						obs.Str("bench", st.name),
						obs.Int("gaps", rep.Gaps),
						obs.Int("filled", rep.GapsFilled),
						obs.Int("outliers", rep.OutliersRejected),
					},
				})
			}
			rec.Count("repair.gaps_filled", float64(rep.GapsFilled))
			rec.Count("repair.outliers_rejected", float64(rep.OutliersRejected))
		}
	}
	if cfg.Facility != nil {
		if trace, err = cfg.Facility.ApplyTrace(trace); err != nil {
			return BenchmarkRun{}, fmt.Errorf("suite: facility model for %s: %w", st.name, err)
		}
	}
	run, err := fromFold(trace.Fold(), st.name, st.metric, sm.perf, sm.profile.Duration())
	if err != nil {
		return BenchmarkRun{}, err
	}
	run.GapsFilled = rep.GapsFilled
	run.OutliersRejected = rep.OutliersRejected
	return run, nil
}

// failedMeasurement returns an empty measurement that still names the
// benchmark, so a failed run's identity survives serialisation and
// journaling.
func failedMeasurement(st benchStep) (m core.Measurement) {
	m.Benchmark, m.Metric = st.name, st.metric
	return m
}

// stretchProfile scales a load profile's time axis by factor (a straggler
// slows the whole bulk-synchronous run down). The result shares lp's
// node loads, so it is valid only as long as lp is: within the attempt
// whose model built lp.
func stretchProfile(lp *cluster.LoadProfile, factor float64) *cluster.LoadProfile {
	out := &cluster.LoadProfile{Phases: make([]cluster.Phase, len(lp.Phases))}
	for i, ph := range lp.Phases {
		out.Phases[i] = cluster.Phase{
			Duration: ph.Duration * units.Seconds(factor),
			NodeUtil: ph.NodeUtil,
		}
	}
	return out
}

// fromFold builds a BenchmarkRun from a metered window's scalars.
func fromFold(f series.Fold, name, metric string, perf float64,
	dur units.Seconds) (BenchmarkRun, error) {
	energy, err := f.Energy()
	if err != nil {
		return BenchmarkRun{}, fmt.Errorf("suite: integrating %s: %w", name, err)
	}
	// With the energy integrated the fold has two samples, so neither
	// of these can fail.
	mean, _ := f.MeanPower()
	peak, _ := f.PeakPower()
	return BenchmarkRun{
		Measurement: core.Measurement{
			Benchmark:   name,
			Metric:      metric,
			Performance: perf,
			Power:       mean,
			Time:        dur,
			Energy:      energy,
		},
		PeakPower: peak,
		Samples:   f.Len(),
	}, nil
}
