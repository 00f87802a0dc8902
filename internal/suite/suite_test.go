package suite

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/power"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil spec accepted")
	}
	cfg := DefaultConfig(cluster.Fire(), 0)
	if _, err := Run(cfg); err == nil {
		t.Error("zero procs accepted")
	}
	cfg = DefaultConfig(cluster.Fire(), 8)
	cfg.Meter.Interval = 0
	if _, err := Run(cfg); err == nil {
		t.Error("bad meter accepted")
	}
}

func TestRunProducesThreeValidMeasurements(t *testing.T) {
	res, err := Run(DefaultConfig(cluster.Fire(), 64))
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Measurements()
	if len(ms) != 3 {
		t.Fatalf("got %d measurements", len(ms))
	}
	wantNames := []string{BenchHPL, BenchSTREAM, BenchIOzone}
	for i, m := range ms {
		if m.Benchmark != wantNames[i] {
			t.Errorf("measurement %d = %q, want %q", i, m.Benchmark, wantNames[i])
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Benchmark, err)
		}
		if m.Energy <= 0 {
			t.Errorf("%s: meter did not integrate energy", m.Benchmark)
		}
	}
	if res.System != "Fire" || res.Procs != 64 {
		t.Errorf("metadata: %+v", res)
	}
	if res.ActiveNodes != 8 { // cyclic placement touches all nodes
		t.Errorf("active nodes = %d", res.ActiveNodes)
	}
}

func TestRunPowerBracketedByModel(t *testing.T) {
	res, err := Run(DefaultConfig(cluster.Fire(), 128))
	if err != nil {
		t.Fatal(err)
	}
	model, err := power.NewModel(cluster.Fire())
	if err != nil {
		t.Fatal(err)
	}
	idle, peak := float64(model.IdlePower()), float64(model.PeakPower())
	for _, m := range res.Measurements() {
		p := float64(m.Power)
		if p < idle*0.99 || p > peak*1.01 {
			t.Errorf("%s power %v outside [%v, %v]", m.Benchmark, p, idle, peak)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(DefaultConfig(cluster.Fire(), 48))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(cluster.Fire(), 48))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].Measurement != b.Runs[i].Measurement {
			t.Errorf("run %d differs across identical invocations", i)
		}
	}
}

func TestSweepAndTGI(t *testing.T) {
	results, err := Sweep(cluster.Fire(), []int{8, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	refRes, err := Run(DefaultConfig(cluster.SystemG(), 1024))
	if err != nil {
		t.Fatal(err)
	}
	ref := refRes.Measurements()
	for _, r := range results {
		c, err := core.Compute(r.Measurements(), ref, core.ArithmeticMean, nil)
		if err != nil {
			t.Fatalf("p=%d: %v", r.Procs, err)
		}
		if c.TGI <= 0 || math.IsNaN(c.TGI) {
			t.Errorf("p=%d: TGI=%v", r.Procs, c.TGI)
		}
	}
}

func TestFireSweepAxis(t *testing.T) {
	ax := FireSweep()
	if len(ax) != 9 || ax[0] != 8 || ax[len(ax)-1] != 128 {
		t.Errorf("axis = %v", ax)
	}
	for i := 1; i < len(ax); i++ {
		if ax[i] <= ax[i-1] {
			t.Errorf("axis not increasing at %d", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	results, err := Sweep(cluster.Testbed(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := SaveJSON(path, results); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("round trip lost results: %d vs %d", len(back), len(results))
	}
	for i := range back {
		if back[i].Procs != results[i].Procs || len(back[i].Runs) != len(results[i].Runs) {
			t.Errorf("result %d differs", i)
		}
		for j := range back[i].Runs {
			if back[i].Runs[j].Measurement != results[i].Runs[j].Measurement {
				t.Errorf("measurement %d/%d differs after round trip", i, j)
			}
		}
	}
	if _, err := LoadJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPowerModelOverride(t *testing.T) {
	cfg := DefaultConfig(cluster.Fire(), 32)
	m, err := power.NewModel(cluster.Fire())
	if err != nil {
		t.Fatal(err)
	}
	m.DisablePSU = true
	cfg.PowerModel = m
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(DefaultConfig(cluster.Fire(), 32))
	if err != nil {
		t.Fatal(err)
	}
	// An ideal PSU lowers wall power.
	if res.Runs[0].Measurement.Power >= base.Runs[0].Measurement.Power {
		t.Errorf("PSU ablation had no effect: %v vs %v",
			res.Runs[0].Measurement.Power, base.Runs[0].Measurement.Power)
	}
}

func TestFacilityRaisesPowerLowersTGI(t *testing.T) {
	base, err := Run(DefaultConfig(cluster.Fire(), 64))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Fire(), 64)
	fac := power.TypicalDatacenter()
	cfg.Facility = &fac
	center, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Runs {
		bp := base.Runs[i].Measurement.Power
		cp := center.Runs[i].Measurement.Power
		if cp <= bp {
			t.Errorf("%s: facility power %v not above IT power %v",
				base.Runs[i].Measurement.Benchmark, cp, bp)
		}
	}
	// Against an IT-level reference, center-wide metering lowers TGI.
	ref, err := Run(DefaultConfig(cluster.SystemG(), 1024))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := core.Compute(base.Measurements(), ref.Measurements(), core.ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := core.Compute(center.Measurements(), ref.Measurements(), core.ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cc.TGI >= cb.TGI {
		t.Errorf("center-wide TGI %v not below IT-level %v", cc.TGI, cb.TGI)
	}
}

func TestMeterDropoutStillYieldsUsableMeasurements(t *testing.T) {
	// Failure injection: a meter losing 30% of its samples must still
	// produce valid measurements with energy within a few percent of the
	// clean run (the boundary samples are never lost).
	clean, err := Run(DefaultConfig(cluster.Fire(), 64))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Fire(), 64)
	cfg.Meter.DropRate = 0.3
	lossy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Runs {
		cm, lm := clean.Runs[i].Measurement, lossy.Runs[i].Measurement
		if err := lm.Validate(); err != nil {
			t.Errorf("%s: %v", lm.Benchmark, err)
		}
		if lossy.Runs[i].Samples >= clean.Runs[i].Samples {
			t.Errorf("%s: no samples dropped", lm.Benchmark)
		}
		rel := math.Abs(float64(lm.EnergyJoules()-cm.EnergyJoules())) / float64(cm.EnergyJoules())
		if rel > 0.05 {
			t.Errorf("%s: dropout energy error %.1f%%", lm.Benchmark, rel*100)
		}
	}
}

func TestCoarseMeterStillCloseToFine(t *testing.T) {
	fine := DefaultConfig(cluster.Fire(), 32)
	coarse := DefaultConfig(cluster.Fire(), 32)
	coarse.Meter.Interval = 30 // one sample every 30 s
	a, err := Run(fine)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(coarse)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		pa := float64(a.Runs[i].Measurement.Power)
		pb := float64(b.Runs[i].Measurement.Power)
		if math.Abs(pa-pb)/pa > 0.02 {
			t.Errorf("%s: coarse sampling moved mean power %v -> %v",
				a.Runs[i].Measurement.Benchmark, pa, pb)
		}
	}
}

func TestDVFSScaledSpecRunsThroughSuite(t *testing.T) {
	spec, err := cluster.WithFrequency(cluster.Fire(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(DefaultConfig(spec, 128))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(DefaultConfig(cluster.Fire(), 128))
	if err != nil {
		t.Fatal(err)
	}
	// Down-clocked HPL: less performance, less power.
	sm, fm := slow.Measurements()[0], fast.Measurements()[0]
	if sm.Performance >= fm.Performance {
		t.Errorf("slow perf %v not below fast %v", sm.Performance, fm.Performance)
	}
	if sm.Power >= fm.Power {
		t.Errorf("slow power %v not below fast %v", sm.Power, fm.Power)
	}
}
