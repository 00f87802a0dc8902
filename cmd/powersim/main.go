// Command powersim streams the simulated wall-plug meter's samples for one
// benchmark run as CSV (seconds, watts) — the raw signal the rest of the
// pipeline integrates, in the same form a Watts Up? PRO logger would emit.
//
// -system takes any built-in machine name (cluster.Names) and -bench any
// registered workload (bench.Names), resolved exactly as greenbench and
// the daemon resolve them. The metered load profile is the one the suite
// meters for that benchmark at -procs, so with -seed set to the suite's
// meter seed for that process count (procs*7919+17) the summary's seconds
// and energy equal the suite's measurement of the benchmark.
//
// Usage:
//
//	powersim -system fire -procs 128 -bench hpl
//	powersim -system fire -procs 64 -bench stream -interval 1 > trace.csv
//	powersim -system sicortex -bench randomaccess > ra.csv
//	powersim -system fire -bench hpl -quiet -trace run.trace.json
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/series"
	"repro/internal/units"
)

func main() {
	system := flag.String("system", "fire", "cluster model: "+strings.Join(cluster.Names(), ", "))
	procs := flag.Int("procs", 0, "MPI process count (default: all cores)")
	benchName := flag.String("bench", "hpl", "registered workload: "+strings.Join(bench.Names(), ", "))
	interval := flag.Float64("interval", 1, "meter sampling interval, seconds")
	seed := flag.Uint64("seed", 42, "meter noise seed")
	quiet := flag.Bool("quiet", false, "suppress the run summary on stderr")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the metered run")
	metricsPath := flag.String("metrics", "", "write meter metrics (counters, histograms) as JSON")
	reportPath := flag.String("report", "", "write the run summary to a file instead of stderr")
	flag.Parse()

	if err := run(options{
		system: *system, procs: *procs, bench: *benchName,
		interval: *interval, seed: *seed, quiet: *quiet,
		tracePath: *tracePath, metricsPath: *metricsPath, reportPath: *reportPath,
	}, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "powersim:", err)
		os.Exit(1)
	}
}

type options struct {
	system      string
	procs       int
	bench       string
	interval    float64
	seed        uint64
	quiet       bool
	tracePath   string
	metricsPath string
	reportPath  string
}

// traced reports whether observability output was requested; the tracer
// only exists when it is (instrumentation is inert and off by default).
func (o options) traced() bool { return o.tracePath != "" || o.metricsPath != "" }

// run emits the sampled trace as CSV on out and the run summary on errw
// (or the -report file), honouring the observability flags.
func run(o options, out, errw io.Writer) error {
	m, err := measure(o)
	if err != nil {
		return err
	}
	// The CSV is the command's product: a write error is sticky in w,
	// and Flush returns it.
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "seconds,watts")
	for _, s := range m.trace.Samples() {
		fmt.Fprintf(w, "%.3f,%.1f\n", float64(s.At), float64(s.Power))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if o.tracePath != "" {
		if err := obs.WriteChromeTraceFile(o.tracePath, m.tracer.Spans(), m.tracer.Events()); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if o.metricsPath != "" {
		if err := m.tracer.Registry().Snapshot().WriteFile(o.metricsPath); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if o.reportPath != "" {
		var b bytes.Buffer
		if err := m.report.Render(&b); err != nil {
			return err
		}
		return os.WriteFile(o.reportPath, b.Bytes(), 0o644)
	}
	if !o.quiet {
		return m.report.Render(errw)
	}
	return nil
}

// metered is one metered run: the sampled meter trace, its summary, and
// the tracer that recorded it (nil unless observability was requested).
type metered struct {
	trace  *series.Trace
	report *report.RunReport
	tracer *obs.Tracer
}

// measure meters one run. The system and benchmark resolve through the
// registries greenbench and the daemon use, and the load profile is the
// one the suite meters for that benchmark at this process count.
func measure(o options) (*metered, error) {
	spec, err := cluster.ByName(o.system)
	if err != nil {
		return nil, err
	}
	procs := o.procs
	if procs == 0 {
		procs = spec.TotalCores()
	}
	wl, ok := bench.Lookup(o.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q (want one of %s)", o.bench, strings.Join(bench.Names(), ", "))
	}
	sm, err := wl.Simulate(spec, bench.Env{Procs: procs, Placement: cluster.Cyclic})
	if err != nil {
		return nil, err
	}
	model, err := power.NewModel(spec)
	if err != nil {
		return nil, err
	}
	cfg := power.WattsUpPRO(o.seed)
	cfg.Interval = units.Seconds(o.interval)
	meter, err := power.NewMeter(cfg)
	if err != nil {
		return nil, err
	}
	m := &metered{}
	if o.traced() {
		m.tracer = obs.NewTracer()
		meter.Instrument(m.tracer)
	}
	if m.trace, err = meter.Measure(model, sm.Profile); err != nil {
		return nil, err
	}
	energy, err := m.trace.Energy()
	if err != nil {
		return nil, err
	}
	mean, _ := m.trace.MeanPower()
	peak, _ := m.trace.PeakPower()

	var percentiles []report.PercentileRow
	if m.tracer != nil {
		for _, h := range m.tracer.Registry().Snapshot().Histograms {
			if h.Name != "meter.window_seconds" || h.Count == 0 {
				continue
			}
			p50, ok := h.Quantile(0.50)
			if !ok {
				continue
			}
			p95, _ := h.Quantile(0.95)
			p99, _ := h.Quantile(0.99)
			percentiles = append(percentiles, report.PercentileRow{
				Bench: h.Name, Count: h.Count, P50: p50, P95: p95, P99: p99,
			})
		}
	}

	m.report = &report.RunReport{
		Title: fmt.Sprintf("powersim: %s on %s", wl.Name(), spec.Name),
		Rows: []report.RunRow{{
			System:    spec.Name,
			Procs:     procs,
			Bench:     wl.Name(),
			Status:    "ok",
			MeanWatts: float64(mean),
			PeakWatts: float64(peak),
			Seconds:   float64(sm.Profile.Duration()),
			EnergyJ:   float64(energy),
		}},
		Percentiles:     percentiles,
		PercentileTitle: "meter window seconds (virtual)",
		Summary: []report.KV{
			{Key: "samples", Value: fmt.Sprintf("%d", m.trace.Len())},
			{Key: "interval", Value: fmt.Sprintf("%g s", o.interval)},
			{Key: "mean power", Value: mean.String()},
			{Key: "energy", Value: energy.String()},
		},
	}
	return m, nil
}
