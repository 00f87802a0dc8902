//go:build !race

// The race detector instruments memory accesses and changes allocation
// counts, so the ceilings are only meaningful in a plain build.

package greenindex_test

import (
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/power"
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
		{name: "live.Bus.Publish no subscriber", runs: 1000, ceiling: 0, setup: setupBusPublish},
		{name: "live.Hub.Tap span", runs: 1000, ceiling: 0, setup: setupTapSpan},
		{name: "series.Trace.Repair", runs: 50, ceiling: 4, setup: setupRepair},
		{name: "series.Repairer.Repair warm", runs: 50, ceiling: 0, setup: setupRepairerWarm},
		{name: "obs.WriteChromeTrace", runs: 20, ceiling: 5, setup: setupChromeTrace},
		{name: "suite.Run untraced", runs: 20, ceiling: 30, setup: setupSuiteRun(false)},
		{name: "suite.Run traced", runs: 20, ceiling: 122, setup: setupSuiteRun(true)},
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
