//go:build !race

// The race detector instruments memory accesses and changes allocation
// counts, so the ceilings are only meaningful in a plain build.

package greenindex_test

import (
	"io"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/beff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/suite"
	"repro/internal/units"
)

// allocSink keeps the allocating probe's result reachable, so the
// compiler cannot prove it dead and drop the allocation.
var allocSink []byte

// TestAllocCeilings pins testing.AllocsPerRun on the hot paths: the
// average heap allocations one call makes, measured at run time. Paths
// that allocate nothing are pinned at zero. The others carry their
// count measured under Go 1.24 plus at most 10% headroom, because CI
// builds with Go 1.22 and escape-analysis verdicts shift between
// compiler versions; a ceiling trips on a real regression, not on
// compiler drift. Lower a ceiling when a change makes a path cheaper.
func TestAllocCeilings(t *testing.T) {
	cases := []struct {
		name    string
		runs    int
		ceiling float64
		// floor is the least count the path may measure; only the
		// probe row sets it, proving the gate can see an allocation.
		floor float64
		setup func(t *testing.T) func()
	}{
		{name: "probe/allocating closure", runs: 100, ceiling: 1, floor: 1, setup: setupAllocProbe},
		{name: "sim.Engine schedule+dispatch", runs: 1000, ceiling: 0, setup: setupEngineDispatch},
		{name: "power.Meter.Measure reused buffer", runs: 100, ceiling: 0, setup: setupMeterMeasure},
		{name: "power.Meter.Measure after Reconfigure", runs: 100, ceiling: 0, setup: setupMeterReconfigure},
		{name: "power.Meter.MeasureFold warm", runs: 100, ceiling: 0, setup: setupMeterMeasureFold},
		{name: "live.Bus.Publish no subscriber", runs: 1000, ceiling: 0, setup: setupBusPublish},
		{name: "live.Hub.Tap span", runs: 1000, ceiling: 0, setup: setupTapSpan},
		{name: "series.Trace.Repair", runs: 50, ceiling: 4, setup: setupRepair},
		{name: "series.Repairer.Repair warm", runs: 50, ceiling: 0, setup: setupRepairerWarm},
		{name: "obs.WriteChromeTrace", runs: 20, ceiling: 5, setup: setupChromeTrace},
		{name: "suite.Run untraced", runs: 20, ceiling: 5, setup: setupSuiteRun(false)},
		{name: "suite.Run traced", runs: 20, ceiling: 42, setup: setupSuiteRun(true)},
		{name: "suite.Run extended SystemG cell warm", runs: 20, ceiling: 9, setup: setupExtendedCell(cluster.SystemG())},
		{name: "beff.Simulate warm scratch", runs: 100, ceiling: 1, setup: setupBeffSimulate},
		{name: "suite.SaveJSON", runs: 20, ceiling: 4, setup: setupSaveJSON},
		{name: "core.ComputeWith three benchmarks", runs: 100, ceiling: 5, setup: setupComputeWith},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := c.setup(t)
			got := testing.AllocsPerRun(c.runs, f)
			t.Logf("%v allocs per call, ceiling %v", got, c.ceiling)
			if got > c.ceiling {
				t.Errorf("%v allocs per call, ceiling %v", got, c.ceiling)
			}
			if got < c.floor {
				t.Errorf("%v allocs per call, want at least %v: the gate cannot see allocations", got, c.floor)
			}
		})
	}
	// The trace writer appends every record into one reused buffer, so
	// it must allocate as often for 10 000 records as for 100.
	t.Run("obs.WriteChromeTrace flat in records", func(t *testing.T) {
		allocs := func(n int) float64 {
			spans, events := chromeTraceRecords(n)
			return testing.AllocsPerRun(10, func() {
				if err := obs.WriteChromeTrace(io.Discard, spans, events); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(100), allocs(10000); small != large {
			t.Errorf("%v allocs for 100 records, %v for 10000: the writer allocates per record", small, large)
		}
	})
	// The run report formats every cell into one buffer sized up front,
	// so it must allocate as often for 1000 rows as for 10.
	t.Run("report.RunReport.Render flat in rows", func(t *testing.T) {
		allocs := func(n int) float64 {
			r := runReport(n)
			return testing.AllocsPerRun(10, func() {
				if err := r.Render(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(10), allocs(1000); small != large {
			t.Errorf("%v allocs for 10 rows, %v for 1000: the report allocates per row", small, large)
		}
	})
	// A warm cell builds its node loads in the worker's scratch, so its
	// bytes do not grow with the node count: SystemG's 128 nodes cost
	// what Fire's 8 do, give or take the margin. One per-node slice on
	// SystemG would be 4 KiB.
	t.Run("suite.Run extended cell flat in nodes", func(t *testing.T) {
		const margin = 256
		g := bytesPerRun(20, setupExtendedCell(cluster.SystemG())(t))
		fire := bytesPerRun(20, setupExtendedCell(cluster.Fire())(t))
		t.Logf("%v B per SystemG cell, %v B per Fire cell", g, fire)
		if g > fire+margin {
			t.Errorf("%v B per SystemG cell, %v B per Fire cell: more than %v B apart, so a cell allocates per node", g, fire, margin)
		}
	})
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func setupAllocProbe(*testing.T) func() {
	return func() { allocSink = make([]byte, 64) }
}

// setupEngineDispatch schedules and dispatches one event per call; the
// arena recycles the slot, so steady state allocates nothing.
func setupEngineDispatch(t *testing.T) func() {
	e := sim.NewEngine(0)
	tick := func() {}
	return func() {
		if _, err := e.After(1, tick); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// setupMeterMeasure samples a two-phase Fire profile on a meter that
// recycles its buffers, the way the sweep scheduler's scratch does.
func setupMeterMeasure(t *testing.T) func() {
	model, err := power.NewModel(cluster.Fire())
	if err != nil {
		t.Fatal(err)
	}
	meter, err := power.NewMeter(power.WattsUpPRO(42))
	if err != nil {
		t.Fatal(err)
	}
	meter.ReuseSampleBuffer()
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(60, 8, cluster.Util{CPU: 0.9, Mem: 0.4}),
		cluster.UniformPhase(60, 4, cluster.Util{CPU: 0.2}),
	}}
	return func() {
		if _, err := meter.Measure(model, lp); err != nil {
			t.Fatal(err)
		}
	}
}

// setupMeterMeasureFold folds the same profile's samples into scalars,
// as a clean suite run does: once the exact-signal scratch and the draw
// cache are warm, no sampled trace or anything else is allocated.
func setupMeterMeasureFold(t *testing.T) func() {
	model, err := power.NewModel(cluster.Fire())
	if err != nil {
		t.Fatal(err)
	}
	meter, err := power.NewMeter(power.WattsUpPRO(42))
	if err != nil {
		t.Fatal(err)
	}
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(60, 8, cluster.Util{CPU: 0.9, Mem: 0.4}),
		cluster.UniformPhase(60, 4, cluster.Util{CPU: 0.2}),
	}}
	return func() {
		if _, err := meter.MeasureFold(model, lp); err != nil {
			t.Fatal(err)
		}
	}
}

// setupMeterReconfigure reseeds a warm meter before every measurement,
// as the sweep scheduler's scratch does at each cell: the draw cache
// and the sample buffers are refilled in place, so a profile no longer
// than the one that warmed them allocates nothing.
func setupMeterReconfigure(t *testing.T) func() {
	model, err := power.NewModel(cluster.Fire())
	if err != nil {
		t.Fatal(err)
	}
	cfg := power.WattsUpPRO(42)
	cfg.DropRate, cfg.GlitchRate, cfg.GlitchWatts = 0.05, 0.02, 60
	meter, err := power.NewMeter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meter.ReuseSampleBuffer()
	long := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(90, 8, cluster.Util{CPU: 0.9, Mem: 0.4}),
		cluster.UniformPhase(90, 4, cluster.Util{CPU: 0.2}),
	}}
	if _, err := meter.Measure(model, long); err != nil {
		t.Fatal(err)
	}
	lp := &cluster.LoadProfile{Phases: long.Phases[:1]}
	return func() {
		cfg.Seed++
		if err := meter.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := meter.Measure(model, lp); err != nil {
			t.Fatal(err)
		}
	}
}

func setupBusPublish(*testing.T) func() {
	bus := live.NewBus()
	e := live.Event{Kind: live.KindSpan, Name: "alloc"}
	return func() { bus.Publish(e) }
}

// setupTapSpan records one span through a hub's tap with nobody
// subscribed: the live mirror's cost on every traced span.
func setupTapSpan(*testing.T) func() {
	rec := live.NewHubAt(time.Now, live.DefaultFlightCapacity).Tap(obs.Discard, 4)
	s := obs.Span{Track: obs.TrackMeter, Name: obs.NameMeterWindow, Start: 1, End: 2}
	return func() { rec.Span(s) }
}

// setupRepair repairs BenchmarkRepair's trace: a 1 Hz hour-long stream
// with periodic glitch spikes and 3 s dropped stretches.
func setupRepair(t *testing.T) func() {
	tr := repairTrace(t)
	return func() {
		if _, _, err := tr.Repair(1, 6); err != nil {
			t.Fatal(err)
		}
	}
}

// setupRepairerWarm repairs the same trace with one Repairer, the way
// the sweep scheduler's per-worker scratch does: once its buffers have
// grown, a repair allocates nothing.
func setupRepairerWarm(t *testing.T) func() {
	tr := repairTrace(t)
	var r series.Repairer
	return func() {
		if _, _, err := r.Repair(tr, 1, 6); err != nil {
			t.Fatal(err)
		}
	}
}

// repairTrace builds BenchmarkRepair's trace.
func repairTrace(t *testing.T) *series.Trace {
	const n = 3600
	tr := series.New(n)
	at := units.Seconds(0)
	for i := 0; i < n; i++ {
		v := 250 + 0.2*math.Sin(float64(i))
		if i%97 == 0 {
			v += 120
		}
		if i%53 == 0 && i > 0 && i < n-1 {
			at += 3
		} else {
			at += 1
		}
		if err := tr.Append(at, units.Watts(v)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// chromeTraceRecords builds n trace records, half spans and half
// instant events, spread over three tracks with three attributes each
// and the fractional timestamps of a campaign past its first benchmark.
func chromeTraceRecords(n int) ([]obs.Span, []obs.Event) {
	tracks := []string{"HPL", obs.TrackMeter, obs.TrackSuite}
	attrs := func(i int) []obs.Attr {
		return []obs.Attr{obs.Str("bench", "HPL"), obs.Int("from", i), obs.Int("filled", 1)}
	}
	spans := make([]obs.Span, n/2)
	for i := range spans {
		at := units.Seconds(654.219255828 + float64(i))
		spans[i] = obs.Span{Track: tracks[i%3], Name: obs.NameMeterWindow, Start: at, End: at + 0.5, Attrs: attrs(i)}
	}
	events := make([]obs.Event, n-n/2)
	for i := range events {
		at := units.Seconds(654.219255828 + float64(i))
		events[i] = obs.Event{Track: tracks[i%3], Name: "repair: gap filled", At: at, Attrs: attrs(i)}
	}
	return spans, events
}

// runReport builds a run report of n rows, every third one repaired,
// with a percentile row per benchmark and the suite's summary keys.
func runReport(n int) *report.RunReport {
	benches := []string{"HPL", "STREAM", "IOzone"}
	r := &report.RunReport{Title: "greenbench campaign: Fire"}
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, report.RunRow{
			System: "Fire", Procs: 8 * (i + 1), Bench: benches[i%3], Status: "recovered",
			Perf: 62.85 + float64(i), Metric: "GFLOPS", MeanWatts: 1578.0123, PeakWatts: 1579.5,
			Seconds: 318.638, WastedSeconds: 31, EnergyJ: 1.01206e+06, Retries: i % 4,
			GapsFilled: 15 * (i % 3), OutliersRejected: 7 * (i % 3),
		})
	}
	for _, b := range benches {
		r.Percentiles = append(r.Percentiles, report.PercentileRow{Bench: b, Count: uint64(n), P50: 510, P95: 540.5, P99: 544})
	}
	r.Summary = []report.KV{{Key: "runs", Value: "3"}, {Key: "virtual time", Value: "1256 s productive + 330 s wasted"}}
	return r
}

// setupComputeWith evaluates TGI over the paper's three benchmarks
// against a reference, the call cmd/tgi, green500 and paper make.
func setupComputeWith(t *testing.T) func() {
	ms := func(scale float64) []core.Measurement {
		return []core.Measurement{
			{Benchmark: "HPL", Metric: "GFLOPS", Performance: 62.85 * scale, Power: 1578, Time: 318.6},
			{Benchmark: "STREAM", Metric: "MBPS", Performance: 25000 * scale, Power: 1550, Time: 652.8},
			{Benchmark: "IOzone", Metric: "MBPS", Performance: 410 * scale, Power: 1490, Time: 505.3},
		}
	}
	test, ref := ms(1), ms(16)
	return func() {
		if _, err := core.ComputeWith(core.PerfPerWatt, test, ref, core.ArithmeticMean, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// setupChromeTrace encodes a 1000-record trace to io.Discard: the
// writer's fixed cost, which the flat-in-records subtest shows does not
// grow with the trace.
func setupChromeTrace(t *testing.T) func() {
	spans, events := chromeTraceRecords(1000)
	return func() {
		if err := obs.WriteChromeTrace(io.Discard, spans, events); err != nil {
			t.Fatal(err)
		}
	}
}

// setupSuiteRun runs the whole three-benchmark pipeline on the Testbed
// at four processes, the unit of work a sweep repeats per cell.
func setupSuiteRun(traced bool) func(t *testing.T) func() {
	return func(t *testing.T) func() {
		spec := cluster.Testbed()
		return func() {
			cfg := suite.DefaultConfig(spec, 4)
			if traced {
				cfg.Trace = obs.NewTracer()
			}
			if _, err := suite.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// setupExtendedCell returns a setup that runs one extended-suite cell
// on spec at 128 processes, the whole of Fire and one process per
// SystemG node. Run borrows a spare scratch, so after the warm-up call
// a cell allocates what a sweep worker's warm cell does: the Result,
// its Runs and one ModelResult per benchmark.
func setupExtendedCell(spec *cluster.Spec) func(t *testing.T) func() {
	return func(t *testing.T) func() {
		cfg := suite.DefaultConfig(spec, 128)
		cfg.Benchmarks = suite.ExtendedOrder
		return func() {
			if _, err := suite.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// setupBeffSimulate costs b_eff's ring on SystemG at 700 processes in a
// warm scratch, as a sweep worker does: the cross-node edge counts have
// a closed form, so only the ModelResult is allocated.
func setupBeffSimulate(t *testing.T) func() {
	cfg := beff.DefaultModelConfig(cluster.SystemG(), 700)
	cfg.Scratch = new(cluster.Scratch)
	return func() {
		if _, err := beff.Simulate(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// setupSaveJSON writes the results of the Testbed's default eight-cell
// sweep: one encoding buffer and the file write, however many runs.
func setupSaveJSON(t *testing.T) func() {
	spec := cluster.Testbed()
	results, err := suite.Sweep(spec, suite.DefaultAxis(spec))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	return func() {
		if err := suite.SaveJSON(path, results); err != nil {
			t.Fatal(err)
		}
	}
}
