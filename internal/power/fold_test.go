package power

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/units"
)

// referenceClusterPower is ClusterPower as it was first written: one
// NodeWall call per node, summed in node order.
func referenceClusterPower(m *Model, utils []cluster.Util) units.Watts {
	if len(utils) > m.Spec.Nodes {
		utils = utils[:m.Spec.Nodes]
	}
	var p float64
	for _, u := range utils {
		p += m.NodeWall(u)
	}
	for i := len(utils); i < m.Spec.Nodes; i++ {
		p += m.NodeWall(cluster.Util{})
	}
	p += m.Spec.Interconnect.SwitchWatts
	p += m.Spec.Storage.Watts
	return units.Watts(p)
}

// TestClusterPowerMatchesPerNodeSum checks ClusterPower bit for bit
// against the per-node sum on every named system, for utils in runs
// (as block and cyclic phases make them), all distinct, with -0 next to
// 0, and shorter or longer than the node count.
func TestClusterPowerMatchesPerNodeSum(t *testing.T) {
	rng := sim.NewRNG(7)
	negZero := math.Copysign(0, -1)
	for _, name := range cluster.Names() {
		spec, err := cluster.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []func(*Model){
			func(m *Model) {},
			func(m *Model) { m.DisablePSU = true },
			func(m *Model) { m.CPUExponent = 2.5 },
		} {
			mm := *m
			variant(&mm)
			for trial := 0; trial < 200; trial++ {
				utils := randomUtils(rng, spec.Nodes, trial)
				if trial%5 == 0 {
					utils = append(utils, cluster.Util{CPU: negZero}, cluster.Util{})
				}
				want, got := referenceClusterPower(&mm, utils), mm.ClusterPower(utils)
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("%s trial %d: %v W, per-node sum %v W", name, trial, got, want)
				}
			}
		}
	}
}

// randomUtils draws up to nodes utils: in runs of a repeated value
// (consecutive runs may differ in one component only), all distinct, or
// mixing 0 and -0, depending on the trial.
func randomUtils(rng *sim.RNG, nodes, trial int) []cluster.Util {
	n := rng.Intn(nodes + 1)
	utils := make([]cluster.Util, n)
	negZero := math.Copysign(0, -1)
	var u cluster.Util
	for i := range utils {
		switch {
		case trial%3 == 0: // all distinct
			u = cluster.Util{CPU: rng.Float64(), Mem: rng.Float64(), Disk: rng.Float64(), Net: rng.Float64()}
		case rng.Float64() < 0.2: // start a new run
			u = cluster.Util{CPU: rng.Float64(), Mem: rng.Float64()}
			if rng.Float64() < 0.3 {
				u.Net = negZero
			}
		case rng.Float64() < 0.2: // a new run differing in one component
			switch v := rng.Float64(); rng.Intn(4) {
			case 0:
				u.CPU = v
			case 1:
				u.Mem = v
			case 2:
				u.Disk = v
			default:
				u.Net = v
			}
		}
		if trial%3 == 1 && rng.Float64() < 0.3 {
			u = cluster.Util{CPU: negZero, Mem: 0}
		}
		utils[i] = u
	}
	return utils
}

// TestMeasureFoldMatchesTrace: a folded measurement reports the energy,
// mean, peak and sample count of Measure's trace bit for bit, and
// records the same meter-window span, on clean and faulty meters.
func TestMeasureFoldMatchesTrace(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(73.25, 8, cluster.Util{CPU: 0.9, Mem: 0.4}),
		cluster.UniformPhase(0.5, 3, cluster.Util{CPU: 1}),
		cluster.UniformPhase(41.7, 4, cluster.Util{CPU: 0.2}),
	}}
	faulty := WattsUpPRO(3)
	faulty.DropRate, faulty.GlitchRate, faulty.GlitchWatts = 0.1, 0.05, 60
	for _, cfg := range []MeterConfig{WattsUpPRO(3), faulty, {Interval: 0.3}} {
		traced, folded := meterPair(t, cfg)
		tracedRec, foldedRec := obs.NewTracer(), obs.NewTracer()
		traced.Instrument(tracedRec)
		folded.Instrument(foldedRec)
		tr, err := traced.Measure(m, lp)
		if err != nil {
			t.Fatal(err)
		}
		f, err := folded.MeasureFold(m, lp)
		if err != nil {
			t.Fatal(err)
		}
		checkFold(t, f, tr)
		if !reflect.DeepEqual(tracedRec.Spans(), foldedRec.Spans()) {
			t.Errorf("%+v: folded spans %v, traced %v", cfg, foldedRec.Spans(), tracedRec.Spans())
		}
	}
}

// meterPair returns two meters of one config.
func meterPair(t *testing.T, cfg MeterConfig) (*Meter, *Meter) {
	t.Helper()
	a, err := NewMeter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMeter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// checkFold fails unless f's scalars equal tr's bit for bit.
func checkFold(t *testing.T, f series.Fold, tr *series.Trace) {
	t.Helper()
	if f.Len() != tr.Len() {
		t.Fatalf("fold of %d samples, trace of %d", f.Len(), tr.Len())
	}
	same := func(what string, a, b float64, errA, errB error) {
		t.Helper()
		if (errA != nil) != (errB != nil) {
			t.Fatalf("%s: fold error %v, trace error %v", what, errA, errB)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: fold %v, trace %v", what, a, b)
		}
	}
	fe, errF := f.Energy()
	te, errT := tr.Energy()
	same("energy", float64(fe), float64(te), errF, errT)
	fm, errF := f.MeanPower()
	tm, errT := tr.MeanPower()
	same("mean", float64(fm), float64(tm), errF, errT)
	fp, errF := f.PeakPower()
	tp, errT := tr.PeakPower()
	same("peak", float64(fp), float64(tp), errF, errT)
}

// TestMeterRefusesHugeSpans: a finite span whose sample count overflows
// int used to panic in makeslice; one beyond MaxSamples, or one too far
// from zero for the interval to advance the clock, must be an error.
func TestMeterRefusesHugeSpans(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(1e300, 8, cluster.Util{CPU: 0.5}),
	}}
	mt, err := NewMeter(WattsUpPRO(42))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Measure(m, lp); err == nil {
		t.Error("Measure sampled a 1e300 s profile")
	}
	if _, err := mt.MeasureFold(m, lp); err == nil {
		t.Error("MeasureFold sampled a 1e300 s profile")
	}
	lp.Phases[0].Duration = MaxSamples
	if _, err := mt.MeasureFold(m, lp); err == nil {
		t.Errorf("MeasureFold took more than %d samples", MaxSamples)
	}
	// At 1e20 s a 1 s step is below half an ulp: the clock never moves.
	far := series.New(2)
	for _, at := range []units.Seconds{1e20, 1e20 + 1e6} {
		if err := far.Append(at, 100); err != nil {
			t.Fatal(err)
		}
	}
	// The stall is caught once the loop passes the span's implied count,
	// not after MaxSamples samples.
	if _, err := mt.Sample(far); err == nil || !strings.Contains(err.Error(), "stalls") {
		t.Errorf("a window whose clock cannot advance: error %v, want a stall", err)
	}
}

// BenchmarkMeterMeasure meters a 400 s two-phase SystemG profile on a
// warm meter, keeping the sampled trace or folding it into scalars.
func BenchmarkMeterMeasure(b *testing.B) {
	m, err := NewModel(cluster.SystemG())
	if err != nil {
		b.Fatal(err)
	}
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(300, 128, cluster.Util{CPU: 0.9, Mem: 0.4}),
		cluster.UniformPhase(100, 64, cluster.Util{CPU: 0.2}),
	}}
	mt, err := NewMeter(WattsUpPRO(42))
	if err != nil {
		b.Fatal(err)
	}
	mt.ReuseSampleBuffer()
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mt.Measure(m, lp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mt.MeasureFold(m, lp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterPower evaluates a 700-process cyclic phase on SystemG
// (128 nodes, two distinct loads), against the per-node reference.
func BenchmarkClusterPower(b *testing.B) {
	spec := cluster.SystemG()
	m, err := NewModel(spec)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := spec.Distribute(700, cluster.Cyclic)
	if err != nil {
		b.Fatal(err)
	}
	var sc *cluster.Scratch
	ph := sc.FromDistribution(1, spec, dist, func(procs, cores int) cluster.Util {
		return cluster.Util{CPU: float64(procs) / float64(cores), Mem: 0.5}
	}).Phases[0]
	b.Run("runs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ClusterPower(ph.NodeUtil)
		}
	})
	b.Run("per-node", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceClusterPower(m, ph.NodeUtil)
		}
	})
}
