package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/series"
	"repro/internal/suite"
	"repro/internal/units"
)

// counts are the exact work counts of one replayed campaign. Two replays
// of the same campaign must agree on every field.
type counts struct {
	SimulateCalls, SimEvents     int64
	MeasureCalls, Samples        int64
	RepairCalls, Gaps, Outliers  int64
	Attempts, UsefulAttempts     int64
	Records, BytesWritten, Final int64
	RenderBytes                  int64
}

// layerTimes are the wall times one replay spent in each layer.
type layerTimes struct {
	simulate, measure, repair, record                            time.Duration
	render, renderResults, renderTrace, renderMetrics, renderRep time.Duration
	// simulateUS and recordUS are per-call durations in microseconds.
	simulateUS, recordUS []float64
}

// replay is one layer-by-layer replay of a probe campaign's cells.
type replay struct {
	counts
	layerTimes
}

// meterSeedBase is the meter-noise seed base suite.DefaultConfig uses,
// which RunCampaign runs every cell under.
const meterSeedBase = 17

// runReplay replays every cell of the probe campaign through the layers'
// public functions — the workload model's Simulate, the fault plan, the
// power meter, series repair, the journal and the artefact writers —
// timing each call in a span, and checks that the replay reproduces the
// campaign's measurements, journal and artefacts exactly.
func runReplay(in *inputs, ref *reference, p *probe, dir string, rec *recorder) (*replay, error) {
	rp := &replay{}
	trace := rec.newTrace()
	root := rec.open(trace, 0, "replay", in.workload)
	defer rec.close(root)

	var spec *cluster.Spec
	rec.time(trace, root, "faults", "ApplySpec", func() { spec = in.plan.ApplySpec(in.spec) })
	var model *power.Model
	var err error
	rec.time(trace, root, "power.model", "NewModel", func() { model, err = power.NewModel(spec) })
	if err != nil {
		return nil, err
	}
	var journal *suite.Journal
	journalPath := filepath.Join(dir, "replay.journal")
	if p.journal != nil {
		if journal, err = suite.OpenJournal(journalPath); err != nil {
			return nil, err
		}
		if err := journal.Bind(in.benchmarks); err != nil {
			return nil, err
		}
	}
	for _, r := range p.out.Results {
		for k, name := range in.benchmarks {
			cell := rec.open(trace, root, "replay.cell", fmt.Sprintf("%s p=%d", name, r.Procs))
			run, err := rp.replayCell(in, spec, model, r.Procs, name, rec, trace, cell)
			if err == nil {
				err = sameRun(run, r.Runs[k])
			}
			if err == nil && journal != nil {
				err = rp.checkpoint(p.journal, journal, suite.CellKey(r.System, r.Procs, r.Placement, name), rec, trace, cell)
			}
			rec.close(cell)
			if err != nil {
				return nil, fmt.Errorf("%s at p=%d: %w", name, r.Procs, err)
			}
		}
	}
	if journal != nil {
		b, err := os.ReadFile(journalPath)
		if err != nil {
			return nil, err
		}
		rp.Final = int64(len(b))
		if string(b) != string(p.journalBytes) {
			return nil, fmt.Errorf("replayed journal (%d bytes) differs from the campaign's (%d bytes)", len(b), len(p.journalBytes))
		}
		if err := journal.Remove(); err != nil {
			return nil, err
		}
	}
	if err := rp.renderArtifacts(in, ref, p, filepath.Join(dir, "replay"), rec, trace, root); err != nil {
		return nil, err
	}
	return rp, p.crossCheck(rp.counts)
}

// replayCell runs one benchmark of one cell the way the suite runner
// does: attempts with backoff, each simulated, drawn against the fault
// plan, and — when it survives — metered and repaired. No workload sets
// a retry Timeout or an EventBudget, so neither path is replayed; sameRun
// would flag a workload that needed one.
func (rp *replay) replayCell(in *inputs, spec *cluster.Spec, model *power.Model, procs int, name string,
	rec *recorder, trace, parent int) (suite.BenchmarkRun, error) {
	w, ok := bench.Lookup(name)
	if !ok {
		return suite.BenchmarkRun{}, fmt.Errorf("unknown benchmark %q", name)
	}
	var meterCfg power.MeterConfig
	rec.time(trace, parent, "faults", "ApplyMeter", func() {
		meterCfg = in.plan.ApplyMeter(power.WattsUpPRO(uint64(procs)*7919 + meterSeedBase))
	})
	meter, err := power.NewMeter(meterCfg)
	if err != nil {
		return suite.BenchmarkRun{}, err
	}
	attempts := max(in.retry.MaxAttempts, 1)
	var wasted units.Seconds
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			wasted += backoff(in.retry, attempt)
		}
		rp.Attempts++
		var sm bench.Simulated
		d := rec.time(trace, parent, "bench.simulate", name, func() {
			sm, err = w.Simulate(spec, bench.Env{Procs: procs, Placement: cluster.Cyclic})
		})
		rp.SimulateCalls++
		rp.simulate += d
		rp.simulateUS = append(rp.simulateUS, float64(d.Nanoseconds())/1e3)
		if err != nil {
			return suite.BenchmarkRun{}, err
		}
		if sm.Engine != nil {
			rp.SimEvents += int64(sm.Engine.Events)
		}
		var inj faults.Injection
		rec.time(trace, parent, "faults", "Draw", func() {
			inj = in.plan.Draw(name, procs, attempt, sm.Profile.Duration(), spec.Nodes)
		})
		perf, profile := sm.Perf, sm.Profile
		if inj.Slowdown > 1 {
			perf /= inj.Slowdown
			profile = stretch(profile, inj.Slowdown)
		}
		dur := profile.Duration()
		if inj.CrashAt >= 0 && inj.CrashAt < dur {
			wasted += inj.CrashAt
			continue
		}
		var tr *series.Trace
		d = rec.time(trace, parent, "power.measure", name, func() { tr, err = meter.Measure(model, profile) })
		if err != nil {
			return suite.BenchmarkRun{}, err
		}
		rp.MeasureCalls++
		rp.measure += d
		rp.Samples += int64(tr.Len())
		var rep series.RepairReport
		if in.plan.MeterFaulty() {
			d = rec.time(trace, parent, "series.repair", name, func() { tr, rep, err = tr.Repair(meterCfg.Interval, 0) })
			if err != nil {
				return suite.BenchmarkRun{}, err
			}
			rp.RepairCalls++
			rp.repair += d
			rp.Gaps += int64(rep.GapsFilled)
			rp.Outliers += int64(rep.OutliersRejected)
		}
		rp.UsefulAttempts++
		return measured(tr, w, perf, dur, attempt, wasted, rep)
	}
	return suite.BenchmarkRun{
		Measurement: core.Measurement{Benchmark: name, Metric: w.Metric()},
		Status:      suite.StatusFailed,
		Retries:     attempts - 1,
		WastedTime:  wasted,
	}, nil
}

// measured folds a metered attempt into the run record the suite keeps.
func measured(tr *series.Trace, w bench.Workload, perf float64, dur units.Seconds, attempt int,
	wasted units.Seconds, rep series.RepairReport) (suite.BenchmarkRun, error) {
	energy, err := tr.Energy()
	if err != nil {
		return suite.BenchmarkRun{}, err
	}
	mean, err := tr.MeanPower()
	if err != nil {
		return suite.BenchmarkRun{}, err
	}
	peak, err := tr.PeakPower()
	if err != nil {
		return suite.BenchmarkRun{}, err
	}
	run := suite.BenchmarkRun{
		Measurement: core.Measurement{
			Benchmark: w.Name(), Metric: w.Metric(), Performance: perf,
			Power: mean, Time: dur, Energy: energy,
		},
		PeakPower:        peak,
		Samples:          tr.Len(),
		Retries:          attempt,
		WastedTime:       wasted,
		GapsFilled:       rep.GapsFilled,
		OutliersRejected: rep.OutliersRejected,
	}
	if attempt > 0 {
		run.Status = suite.StatusRecovered
	}
	return run, nil
}

// backoff is the virtual-time delay a retry policy charges before the
// given retry (1-based).
func backoff(p suite.RetryPolicy, retry int) units.Seconds {
	factor := p.BackoffFactor
	if factor == 0 {
		factor = 2
	}
	return p.Backoff * units.Seconds(math.Pow(factor, float64(retry-1)))
}

// stretch scales a load profile's time axis: a straggler slows the whole
// bulk-synchronous run down.
func stretch(lp *cluster.LoadProfile, factor float64) *cluster.LoadProfile {
	out := &cluster.LoadProfile{Phases: make([]cluster.Phase, len(lp.Phases))}
	for i, ph := range lp.Phases {
		out.Phases[i] = cluster.Phase{Duration: ph.Duration * units.Seconds(factor), NodeUtil: ph.NodeUtil}
	}
	return out
}

// sameRun compares a replayed run with the campaign's. The failure text
// of a failed benchmark is the runner's own wording and is not compared.
func sameRun(got, want suite.BenchmarkRun) error {
	want.Error = ""
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("replay measured %+v, campaign %+v", got, want)
	}
	return nil
}

// checkpoint records one cell into the replay journal with the trace and
// run the campaign's own journal holds for it.
func (rp *replay) checkpoint(from, to *suite.Journal, key string, rec *recorder, trace, parent int) error {
	run, ok := from.Lookup(key)
	if !ok {
		return fmt.Errorf("campaign journal has no cell %s", key)
	}
	tr, hasTrace := from.LookupTrace(key)
	var err error
	d := rec.time(trace, parent, "journal", key, func() {
		if hasTrace {
			to.SetTrace(key, tr)
		}
		err = to.Record(key, run)
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(to.Path())
	if err != nil {
		return err
	}
	rp.Records++
	rp.record += d
	rp.recordUS = append(rp.recordUS, float64(d.Nanoseconds())/1e3)
	rp.BytesWritten += fi.Size()
	return nil
}

// renderArtifacts rewrites the probe campaign's artefacts into dir through the
// writers campaign.Artifacts calls, one span each, and checks the bytes
// against the reference.
func (rp *replay) renderArtifacts(in *inputs, ref *reference, p *probe, dir string, rec *recorder, trace, parent int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	results := p.out.Results
	id := rec.open(trace, parent, "replay.render", "")
	var err error
	rp.renderResults = rec.time(trace, id, "render.results", "", func() {
		err = suite.SaveJSON(filepath.Join(dir, campaign.ResultsFile), results)
	})
	if err == nil && p.tracer != nil {
		rp.renderTrace = rec.time(trace, id, "render.trace", "", func() {
			err = obs.WriteChromeTraceFile(filepath.Join(dir, campaign.TraceFile), p.tracer.Spans(), p.tracer.Events())
		})
	}
	if err == nil && p.tracer != nil {
		rp.renderMetrics = rec.time(trace, id, "render.metrics", "", func() {
			err = p.tracer.Registry().Snapshot().WriteFile(filepath.Join(dir, campaign.MetricsFile))
		})
	}
	if err == nil && p.tracer != nil {
		rp.renderRep = rec.time(trace, id, "render.report", "", func() {
			err = writeReport(filepath.Join(dir, campaign.ReportFile), p.tracer, results)
		})
	}
	rp.render = rec.close(id)
	if err != nil {
		return err
	}
	files, err := readArtifacts(dir)
	if err != nil {
		return err
	}
	for _, b := range files {
		rp.RenderBytes += int64(len(b))
	}
	if err := sameFiles(files, ref.files); err != nil {
		return fmt.Errorf("replayed render: %w", err)
	}
	return nil
}

// writeReport renders the run report the way campaign.Artifacts does.
func writeReport(path string, tracer *obs.Tracer, results []*suite.Result) error {
	rep := suite.BuildReport("greenbench campaign: "+results[0].System, results)
	suite.AttachPercentiles(rep, tracer.Registry().Snapshot())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// crossCheck compares the replay's counts with the counters the traced
// campaign recorded itself, where it recorded them.
func (p *probe) crossCheck(c counts) error {
	if p.tracer == nil {
		return nil
	}
	want := map[string]int64{
		"suite.attempts":           c.Attempts,
		"meter.samples":            c.Samples,
		"repair.gaps_filled":       c.Gaps,
		"repair.outliers_rejected": c.Outliers,
	}
	got := map[string]int64{}
	for _, m := range p.tracer.Registry().Snapshot().Counters {
		got[m.Name] = int64(m.Value)
	}
	for name, w := range want {
		if got[name] != w {
			return fmt.Errorf("campaign counter %s = %d, replay counted %d", name, got[name], w)
		}
	}
	return nil
}
