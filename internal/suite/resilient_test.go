package suite

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/units"
)

// goldenTestbed pins the Testbed suite output bit-for-bit. These numbers
// were captured from the pre-resilience pipeline; an empty fault plan and a
// zero RetryPolicy must reproduce them exactly — the resilience machinery
// is required to be invisible when unused.
var goldenTestbed = map[int]map[string]struct {
	perf, power, time, energy, peak float64
	samples                         int
}{
	4: {
		"HPL":    {13.700323379650401, 297.7675731080817, 516.7973302448188, 153885.48681573552, 299.40000000000003, 518},
		"STREAM": {10000, 282.25416376026055, 816.04378624, 230331.756476928, 283.90000000000003, 818},
		"IOzone": {114, 253.30358333333334, 157.89473684210526, 39995.30263157895, 254.60000000000002, 159},
	},
	8: {
		"HPL":    {27.216958367566324, 344.30610035254847, 735.8066016138274, 253342.7016153181, 346.1, 737},
		"STREAM": {15500, 309.46983924984545, 1052.9597241806453, 325859.27657874586, 311.20000000000005, 1054},
		"IOzone": {190, 257.3629444444445, 189.47368421052633, 48763.50526315791, 258.6, 191},
	},
}

func TestEmptyFaultPlanReproducesGoldenNumbers(t *testing.T) {
	for procs, want := range goldenTestbed {
		cfg := DefaultConfig(cluster.Testbed(), procs)
		cfg.Faults = &faults.Plan{} // explicitly empty, not nil
		cfg.Retry = RetryPolicy{}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", procs, err)
		}
		if res.Degraded || len(res.Warnings) != 0 {
			t.Errorf("p=%d: clean run degraded: %+v", procs, res.Warnings)
		}
		for _, b := range res.Runs {
			w, ok := want[b.Measurement.Benchmark]
			if !ok {
				t.Fatalf("p=%d: unexpected benchmark %q", procs, b.Measurement.Benchmark)
			}
			m := b.Measurement
			if m.Performance != w.perf || float64(m.Power) != w.power ||
				float64(m.Time) != w.time || float64(m.Energy) != w.energy ||
				float64(b.PeakPower) != w.peak || b.Samples != w.samples {
				t.Errorf("p=%d %s drifted from golden values:\n got  %v %v %v %v %v %d\n want %v %v %v %v %v %d",
					procs, m.Benchmark,
					m.Performance, m.Power, m.Time, m.Energy, b.PeakPower, b.Samples,
					w.perf, w.power, w.time, w.energy, w.peak, w.samples)
			}
			if b.Status != StatusOK || b.Retries != 0 || b.WastedTime != 0 {
				t.Errorf("p=%d %s: clean run has resilience residue: %+v", procs, m.Benchmark, b)
			}
		}
	}
}

func TestEmptyPlanSerialisesIdentically(t *testing.T) {
	// The resilience fields must not leak into fault-free JSON: a result
	// from an explicit empty plan serialises byte-identically to one from
	// a nil plan.
	plain, err := Run(DefaultConfig(cluster.Testbed(), 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Testbed(), 4)
	cfg.Faults = &faults.Plan{}
	withPlan, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(withPlan)
	if string(a) != string(b) {
		t.Errorf("serialisations differ:\n%s\n%s", a, b)
	}
}

func TestScheduledCrashRecoversOnRetry(t *testing.T) {
	clean, err := Run(DefaultConfig(cluster.Testbed(), 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Testbed(), 4)
	cfg.Faults = &faults.Plan{
		Crashes: []faults.Crash{{Benchmark: BenchHPL, Node: 1, At: 100, Attempt: 0}},
	}
	cfg.Retry = RetryPolicy{MaxAttempts: 2, Backoff: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("recovered run marked degraded: %v", res.Warnings)
	}
	hplRun := res.Runs[0]
	if hplRun.Status != StatusRecovered || hplRun.Retries != 1 {
		t.Errorf("HPL = %+v, want recovered after 1 retry", hplRun)
	}
	// Wasted time = 100 s of crashed attempt + 30 s backoff.
	if hplRun.WastedTime != 130 {
		t.Errorf("WastedTime = %v, want 130", hplRun.WastedTime)
	}
	// The successful attempt's measurement is identical to the clean run's:
	// retries burn virtual time but never perturb the measurement stream.
	if hplRun.Measurement != clean.Runs[0].Measurement {
		t.Errorf("recovered measurement differs from clean:\n%+v\n%+v",
			hplRun.Measurement, clean.Runs[0].Measurement)
	}
	// The other benchmarks ran untouched.
	for i := 1; i < 3; i++ {
		if res.Runs[i] != clean.Runs[i] {
			t.Errorf("benchmark %d perturbed by HPL's crash", i)
		}
	}
}

func TestExhaustedRetriesDegradeToPartialResult(t *testing.T) {
	cfg := DefaultConfig(cluster.Testbed(), 4)
	cfg.Faults = &faults.Plan{
		// Every attempt of STREAM crashes (Attempt matches only one value,
		// so schedule both of the two attempts).
		Crashes: []faults.Crash{
			{Benchmark: BenchSTREAM, Node: 0, At: 50, Attempt: 0},
			{Benchmark: BenchSTREAM, Node: 1, At: 70, Attempt: 1},
		},
	}
	cfg.Retry = RetryPolicy{MaxAttempts: 2, Backoff: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("run with a dead benchmark not marked degraded")
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "STREAM failed after 2 attempt(s)") {
		t.Errorf("warnings = %v", res.Warnings)
	}
	st := res.Runs[1]
	if st.Status != StatusFailed || st.Retries != 1 || st.Error == "" {
		t.Errorf("STREAM = %+v, want failed", st)
	}
	if st.WastedTime != 50+30+70 {
		t.Errorf("WastedTime = %v, want 150", st.WastedTime)
	}
	// Survivors are exactly HPL and IOzone, and partial TGI works over them.
	ms := res.Measurements()
	if len(ms) != 2 || ms[0].Benchmark != BenchHPL || ms[1].Benchmark != BenchIOzone {
		t.Fatalf("survivors = %v", ms)
	}
	ref, err := Run(DefaultConfig(cluster.Testbed(), 8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.ComputePartial(ms, ref.Measurements(), core.ArithmeticMean, nil, res.Benchmarks())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Degraded || len(c.Missing) != 1 || c.Missing[0] != BenchSTREAM {
		t.Errorf("partial TGI components = %+v", c)
	}
	if c.TGI <= 0 || math.IsNaN(c.TGI) {
		t.Errorf("partial TGI = %v", c.TGI)
	}
}

func TestStragglerStretchesRunAndHalvesPerformance(t *testing.T) {
	clean, err := Run(DefaultConfig(cluster.Testbed(), 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Testbed(), 4)
	cfg.Faults = &faults.Plan{
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.5},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Runs {
		cm := clean.Runs[i].Measurement
		m := b.Measurement
		if math.Abs(m.Performance-cm.Performance/2) > 1e-9*cm.Performance {
			t.Errorf("%s perf = %v, want half of %v", m.Benchmark, m.Performance, cm.Performance)
		}
		if math.Abs(float64(m.Time-2*cm.Time)) > 1e-9*float64(cm.Time) {
			t.Errorf("%s time = %v, want double %v", m.Benchmark, m.Time, cm.Time)
		}
	}
}

func TestTimeoutFailsSlowBenchmark(t *testing.T) {
	cfg := DefaultConfig(cluster.Testbed(), 4)
	// Every benchmark's clean runtime exceeds 100 s, so a 100 s timeout
	// kills the whole suite. No panic, no hang: a degraded empty result.
	cfg.Retry = RetryPolicy{MaxAttempts: 2, Timeout: 100}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.Measurements()) != 0 {
		t.Errorf("result = %+v, want fully degraded", res)
	}
	for _, b := range res.Runs {
		if b.Status != StatusFailed || !strings.Contains(b.Error, "exceeds timeout") {
			t.Errorf("%s = %+v", b.Measurement.Benchmark, b)
		}
	}
	// All failed -> partial TGI correctly refuses.
	ref, err := Run(DefaultConfig(cluster.Testbed(), 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ComputePartial(res.Measurements(), ref.Measurements(),
		core.ArithmeticMean, nil, res.Benchmarks()); err == nil {
		t.Error("partial TGI over zero survivors accepted")
	}
}

func TestMeterFaultsAreRepairedAndCounted(t *testing.T) {
	clean, err := Run(DefaultConfig(cluster.Testbed(), 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Testbed(), 4)
	cfg.Faults = &faults.Plan{
		Meter: &faults.Meter{DropRate: 0.1, GlitchRate: 0.03, GlitchWatts: 80},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("meter faults degraded the run: %v", res.Warnings)
	}
	for i, b := range res.Runs {
		if b.GapsFilled == 0 {
			t.Errorf("%s: no gaps filled at 10%% drop rate", b.Measurement.Benchmark)
		}
		if b.OutliersRejected == 0 {
			t.Errorf("%s: no outliers rejected at 3%% glitch rate", b.Measurement.Benchmark)
		}
		// Repair restores the full meter cadence.
		if b.Samples != clean.Runs[i].Samples {
			t.Errorf("%s: %d samples after repair, clean run had %d",
				b.Measurement.Benchmark, b.Samples, clean.Runs[i].Samples)
		}
		// The repaired energy stays within a few percent of the clean one.
		rel := math.Abs(float64(b.Measurement.Energy-clean.Runs[i].Measurement.Energy)) /
			float64(clean.Runs[i].Measurement.Energy)
		if rel > 0.03 {
			t.Errorf("%s: repaired energy off by %.2f%%", b.Measurement.Benchmark, rel*100)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil || !strings.Contains(err.Error(), "no cluster spec") {
		t.Errorf("nil spec error = %v", err)
	}
	cfg := DefaultConfig(cluster.Testbed(), 0)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "at least 1") {
		t.Errorf("procs=0 error = %v", err)
	}
	over := DefaultConfig(cluster.Testbed(), 10_000)
	if _, err := Run(over); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Errorf("oversubscription error = %v", err)
	}
	bad := DefaultConfig(cluster.Testbed(), 4)
	bad.Retry = RetryPolicy{Backoff: -1}
	if _, err := Run(bad); err == nil {
		t.Error("negative backoff accepted")
	}
	// Doubling 30 s over 1100 retries overflows the virtual clock. The
	// sum is taken in closed form, so even an int-sized budget is
	// checked at once, and a flat or shrinking backoff stays finite.
	huge := DefaultConfig(cluster.Testbed(), 4)
	huge.Retry = RetryPolicy{MaxAttempts: 1101, Backoff: 30}
	if _, err := Run(huge); err == nil || !strings.Contains(err.Error(), "1100 retries") {
		t.Errorf("overflowing backoff error = %v", err)
	}
	for _, factor := range []float64{1, 0.5} {
		p := RetryPolicy{MaxAttempts: math.MaxInt, Backoff: 30, BackoffFactor: factor}
		if err := p.Validate(); err != nil {
			t.Errorf("factor %v over an int-sized budget refused: %v", factor, err)
		}
	}
	badPlan := DefaultConfig(cluster.Testbed(), 4)
	badPlan.Faults = &faults.Plan{CrashProb: 2}
	if _, err := Run(badPlan); err == nil {
		t.Error("invalid fault plan accepted")
	}
}

func TestLookupAndCheckpointHooks(t *testing.T) {
	clean, err := Run(DefaultConfig(cluster.Testbed(), 4))
	if err != nil {
		t.Fatal(err)
	}
	// lookup serves HPL from cache; checkpoint sees only the fresh runs.
	cached := clean.Runs[0]
	cached.Measurement.Performance = 999 // sentinel proving the cache was used
	cfg := DefaultConfig(cluster.Testbed(), 4)
	cfg.lookup = func(bench string, clock units.Seconds) (BenchmarkRun, units.Seconds, bool) {
		if bench == BenchHPL {
			return cached, clock + cached.Measurement.Time, true
		}
		return BenchmarkRun{}, clock, false
	}
	var fresh []string
	cfg.checkpoint = func(bench string, run BenchmarkRun, _ units.Seconds) error {
		fresh = append(fresh, bench)
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Measurement.Performance != 999 {
		t.Error("lookup hit not reused verbatim")
	}
	if len(fresh) != 2 || fresh[0] != BenchSTREAM || fresh[1] != BenchIOzone {
		t.Errorf("checkpoint saw %v, want fresh benchmarks only", fresh)
	}
	// The cached benchmark must not consume meter samples: the fresh runs
	// are identical to the clean run's (meter streams are per-benchmark).
	for i := 1; i < 3; i++ {
		if res.Runs[i] != clean.Runs[i] {
			t.Errorf("fresh run %d perturbed by cache hit", i)
		}
	}
}

func TestBackoffDelayGrowsExponentially(t *testing.T) {
	p := RetryPolicy{Backoff: 10}
	for i, want := range []units.Seconds{10, 20, 40} {
		if got := p.delay(i + 1); got != want {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, want)
		}
	}
	tripled := RetryPolicy{Backoff: 10, BackoffFactor: 3}
	if got := tripled.delay(3); got != 90 {
		t.Errorf("delay(3) with factor 3 = %v, want 90", got)
	}
}
