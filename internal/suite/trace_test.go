package suite

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// faultyConfig is a fixed-seed scenario exercising every span source:
// a scheduled crash (retry + backoff), a certain straggler, and meter
// faults (drops + glitches driving the repair pass).
func faultyConfig(procs int) Config {
	cfg := SeededConfig(cluster.Testbed(), procs, 23)
	cfg.Faults = &faults.Plan{
		Seed:      11,
		Crashes:   []faults.Crash{{Benchmark: BenchHPL, Node: 1, At: 50, Attempt: 0}},
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.9},
		Meter:     &faults.Meter{DropRate: 0.08, GlitchRate: 0.02, GlitchWatts: 400},
	}
	cfg.Retry = RetryPolicy{MaxAttempts: 3, Backoff: 30}
	return cfg
}

// TestTracingIsInert is the golden inertness test: the sweep's JSON output
// must be byte-identical whether instrumentation is absent, discarded, or
// live — tracing can never change TGI values, retry decisions or RNG draws.
func TestTracingIsInert(t *testing.T) {
	marshal := func(rs []*Result) []byte {
		b, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sweep := func(rec obs.Recorder) []byte {
		plan := SweepPlan{
			Axis: []int{2, 4, 8},
			Configure: func(procs int) (Config, error) {
				cfg := faultyConfig(procs)
				cfg.Trace = rec
				return cfg, nil
			},
		}
		if tracer, ok := rec.(*obs.Tracer); ok {
			plan.Trace = tracer
		}
		rs, err := RunSweepPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		return marshal(rs)
	}
	baseline := sweep(nil)
	if got := sweep(obs.Discard); !bytes.Equal(got, baseline) {
		t.Error("obs.Discard recorder changed the sweep output")
	}
	var nilTracer *obs.Tracer
	if got := sweep(nilTracer); !bytes.Equal(got, baseline) {
		t.Error("nil *obs.Tracer recorder changed the sweep output")
	}
	tracer := obs.NewTracer()
	if got := sweep(tracer); !bytes.Equal(got, baseline) {
		t.Error("live tracer changed the sweep output")
	}
	if len(tracer.Spans()) == 0 {
		t.Error("live tracer recorded nothing (instrumentation not wired?)")
	}
}

// TestGoldenChromeTrace pins the trace exporter's exact output for the
// fixed-seed fault scenario. Regenerate with: go test ./internal/suite
// -run TestGoldenChromeTrace -update
func TestGoldenChromeTrace(t *testing.T) {
	tracer := obs.NewTracer()
	cfg := faultyConfig(4)
	cfg.Trace = tracer
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tracer.Spans(), tracer.Events()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "faulty.trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace diverges from %s (regenerate with -update if intended)", golden)
	}
	// The golden trace is itself schema-valid and shows the retry attempts
	// and the injected crash as distinct entries.
	chk, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if chk.Spans == 0 || chk.Instants == 0 {
		t.Errorf("golden trace = %+v, want spans and fault events", chk)
	}
	s := buf.String()
	for _, want := range []string{"attempt 1", "attempt 2", "backoff", "fault: node crash", "window"} {
		if !strings.Contains(s, want) {
			t.Errorf("golden trace missing %q", want)
		}
	}
}

// TestTraceTimelineTiles checks the campaign-clock contract: a benchmark's
// span covers its attempts, backoffs and waste exactly.
func TestTraceTimelineTiles(t *testing.T) {
	tracer := obs.NewTracer()
	cfg := faultyConfig(4)
	cfg.Trace = tracer
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total units.Seconds
	for _, b := range r.Runs {
		total += b.Measurement.Time + b.WastedTime
	}
	if r.TraceEnd != total {
		t.Errorf("TraceEnd = %v, want the accounted %v", r.TraceEnd, total)
	}
	// The run-level span covers [0, TraceEnd].
	found := false
	for _, s := range tracer.Spans() {
		if s.Track == "suite" {
			found = true
			if s.Start != 0 || s.End != r.TraceEnd {
				t.Errorf("run span = [%v, %v], want [0, %v]", s.Start, s.End, r.TraceEnd)
			}
		}
	}
	if !found {
		t.Error("no run-level span on the suite track")
	}
}

// TestRepairEventPerWindow checks that a traced run marks each repaired
// meter window with one event at the window's start, whose counts are
// the ones the benchmark's result reports.
func TestRepairEventPerWindow(t *testing.T) {
	cfg := faultyConfig(4)
	tracer := obs.NewTracer()
	cfg.Trace = tracer
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := map[units.Seconds]bool{}
	for _, s := range tracer.Spans() {
		if s.Track == obs.TrackMeter && s.Name == obs.NameMeterWindow {
			windows[s.Start] = true
		}
	}
	events := map[string]map[string]string{}
	for _, e := range tracer.Events() {
		if e.Name != obs.EventRepair {
			continue
		}
		attrs := map[string]string{}
		for _, a := range e.Attrs {
			attrs[a.Key] = a.Text()
		}
		if events[attrs["bench"]] != nil {
			t.Errorf("%s: more than one repair event", attrs["bench"])
		}
		events[attrs["bench"]] = attrs
		if !windows[e.At] {
			t.Errorf("%s: repair event at %v starts no meter window", attrs["bench"], e.At)
		}
	}
	for _, b := range res.Runs {
		name := b.Measurement.Benchmark
		attrs, ok := events[name]
		if b.GapsFilled == 0 && b.OutliersRejected == 0 {
			if ok {
				t.Errorf("%s: repair event for an unrepaired window", name)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: repaired window has no repair event", name)
			continue
		}
		if attrs["filled"] != strconv.Itoa(b.GapsFilled) || attrs["outliers"] != strconv.Itoa(b.OutliersRejected) {
			t.Errorf("%s: event says filled %s, outliers %s; result says %d, %d",
				name, attrs["filled"], attrs["outliers"], b.GapsFilled, b.OutliersRejected)
		}
		if gaps, _ := strconv.Atoi(attrs["gaps"]); (gaps == 0) != (b.GapsFilled == 0) || gaps > b.GapsFilled {
			t.Errorf("%s: %d gaps for %d filled samples", name, gaps, b.GapsFilled)
		}
	}
}
