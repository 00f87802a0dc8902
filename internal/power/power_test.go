package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/units"
)

func newFireModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(cluster.Fire())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelRejectsBadSpec(t *testing.T) {
	if _, err := NewModel(nil); err == nil {
		t.Error("nil spec accepted")
	}
	bad := cluster.Fire()
	bad.Nodes = -1
	if _, err := NewModel(bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestNodePowerMonotone(t *testing.T) {
	m := newFireModel(t)
	idle := m.NodeDC(cluster.Util{})
	full := m.NodeDC(cluster.Util{CPU: 1, Mem: 1, Disk: 1, Net: 1})
	if idle <= 0 {
		t.Errorf("idle DC = %v", idle)
	}
	if full <= idle {
		t.Errorf("full DC %v not above idle %v", full, idle)
	}
	// Each component alone raises power above idle.
	for _, u := range []cluster.Util{{CPU: 1}, {Mem: 1}, {Disk: 1}, {Net: 1}} {
		if p := m.NodeDC(u); p <= idle {
			t.Errorf("util %+v power %v not above idle %v", u, p, idle)
		}
	}
}

func TestNodePowerMonotoneProperty(t *testing.T) {
	m := newFireModel(t)
	f := func(a, b, c, d, e, f2, g, h float64) bool {
		u1 := cluster.Util{CPU: frac(a), Mem: frac(b), Disk: frac(c), Net: frac(d)}
		u2 := cluster.Util{
			CPU:  math.Min(1, u1.CPU+frac(e)),
			Mem:  math.Min(1, u1.Mem+frac(f2)),
			Disk: math.Min(1, u1.Disk+frac(g)),
			Net:  math.Min(1, u1.Net+frac(h)),
		}
		return m.NodeDC(u2) >= m.NodeDC(u1)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func frac(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Abs(math.Mod(v, 1))
}

func TestWallAboveDC(t *testing.T) {
	m := newFireModel(t)
	for _, l := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for _, u := range []cluster.Util{{CPU: l}, {Mem: l}, {Disk: l}, {Net: l}, {CPU: l, Mem: l, Disk: l, Net: l}} {
			dc := m.NodeDC(u)
			wall := m.NodeWall(u)
			if wall < dc {
				t.Errorf("wall %v below DC %v at %+v", wall, dc, u)
			}
		}
	}
	m.DisablePSU = true
	u := cluster.Util{CPU: 0.5}
	if m.NodeWall(u) != m.NodeDC(u) {
		t.Error("DisablePSU did not bypass the PSU curve")
	}
}

// peakPower is the wall power with every component of every node at full
// utilisation.
func peakPower(m *Model) units.Watts {
	full := make([]cluster.Util, m.Spec.Nodes)
	for i := range full {
		full[i] = cluster.Util{CPU: 1, Mem: 1, Disk: 1, Net: 1}
	}
	return m.ClusterPower(full)
}

func TestClusterPowerIncludesIdleNodesAndFabric(t *testing.T) {
	m := newFireModel(t)
	spec := m.Spec
	idleAll := float64(m.ClusterPower(nil))
	wantIdle := 8*m.NodeWall(cluster.Util{}) + spec.Interconnect.SwitchWatts + spec.Storage.Watts
	if math.Abs(idleAll-wantIdle) > 1e-9 {
		t.Errorf("idle cluster = %v, want %v", idleAll, wantIdle)
	}
	// Loading one node leaves the other seven at idle draw.
	one := m.ClusterPower([]cluster.Util{{CPU: 1}})
	wantOne := wantIdle - m.NodeWall(cluster.Util{}) + m.NodeWall(cluster.Util{CPU: 1})
	if math.Abs(float64(one)-wantOne) > 1e-9 {
		t.Errorf("one-node load = %v, want %v", one, wantOne)
	}
	if peak := peakPower(m); float64(peak) <= idleAll {
		t.Errorf("peak %v not above idle %v", peak, idleAll)
	}
}

func TestClusterPowerPlausibleRange(t *testing.T) {
	m := newFireModel(t)
	idle := float64(m.ClusterPower(nil))
	peak := float64(peakPower(m))
	// An 8-node dual-socket cluster: idle ~1.5-2.5 kW, peak ~3-4.5 kW.
	if idle < 1200 || idle > 2600 {
		t.Errorf("Fire idle power %v W outside plausible range", idle)
	}
	if peak < 2800 || peak > 4800 {
		t.Errorf("Fire peak power %v W outside plausible range", peak)
	}
}

func TestCPUExponent(t *testing.T) {
	m := newFireModel(t)
	lin := m.NodeDC(cluster.Util{CPU: 0.5})
	m.CPUExponent = 2
	quad := m.NodeDC(cluster.Util{CPU: 0.5})
	if quad >= lin {
		t.Errorf("quadratic exponent at half load (%v) should be below linear (%v)", quad, lin)
	}
	// At the endpoints the exponent must not matter.
	m.CPUExponent = 1
	p0, p1 := m.NodeDC(cluster.Util{}), m.NodeDC(cluster.Util{CPU: 1})
	m.CPUExponent = 3
	if m.NodeDC(cluster.Util{}) != p0 || m.NodeDC(cluster.Util{CPU: 1}) != p1 {
		t.Error("exponent changed endpoint power")
	}
	m.CPUExponent = 1.5
	mid := m.NodeDC(cluster.Util{CPU: 0.5})
	if mid >= lin || mid <= quad {
		t.Errorf("exponent 1.5 power %v not between linear %v and quadratic %v", mid, lin, quad)
	}
}

func TestProfileTraceExactEnergy(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(10, 8, cluster.Util{CPU: 1}),
		cluster.UniformPhase(20, 8, cluster.Util{}),
	}}
	tr, err := m.ProfileTrace(lp)
	if err != nil {
		t.Fatal(err)
	}
	e, err := tr.Energy()
	if err != nil {
		t.Fatal(err)
	}
	pFull := float64(m.ClusterPower(lp.Phases[0].NodeUtil))
	pIdle := float64(m.ClusterPower(nil))
	want := pFull*10 + pIdle*20
	if math.Abs(float64(e)-want) > 1e-6 {
		t.Errorf("profile energy = %v, want %v", e, want)
	}
}

func TestMeterConfigValidation(t *testing.T) {
	if _, err := NewMeter(MeterConfig{Interval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewMeter(MeterConfig{Interval: 1, QuantumWatts: -1}); err == nil {
		t.Error("negative quantum accepted")
	}
	if _, err := NewMeter(MeterConfig{Interval: 1, DropRate: 1}); err == nil {
		t.Error("drop rate 1 accepted")
	}
	if _, err := NewMeter(WattsUpPRO(1)); err != nil {
		t.Errorf("WattsUpPRO config rejected: %v", err)
	}
}

func TestMeterEnergyCloseToExact(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(60, 8, cluster.Util{CPU: 0.9, Mem: 0.4}),
		cluster.UniformPhase(60, 4, cluster.Util{CPU: 0.2}),
	}}
	exact, err := m.ProfileTrace(lp)
	if err != nil {
		t.Fatal(err)
	}
	eExact, _ := exact.Energy()
	mt, err := NewMeter(WattsUpPRO(42))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := mt.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	eMeter, err := sampled.Energy()
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(float64(eMeter-eExact)) / float64(eExact)
	if rel > 0.01 {
		t.Errorf("meter energy off by %.2f%%", rel*100)
	}
	// The meter covers the full window.
	start, end, _ := sampled.Span()
	if start != 0 || end != 120 {
		t.Errorf("meter span [%v, %v], want [0, 120]", start, end)
	}
}

func TestMeterDeterministic(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(30, 8, cluster.Util{CPU: 0.7}),
	}}
	mt1, _ := NewMeter(WattsUpPRO(7))
	mt2, _ := NewMeter(WattsUpPRO(7))
	a, err := mt1.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mt2.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.At(i), b.At(i))
		}
	}
}

func TestMeterQuantisation(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(10, 8, cluster.Util{CPU: 0.5}),
	}}
	mt, _ := NewMeter(MeterConfig{Interval: 1, QuantumWatts: 0.1})
	tr, err := mt.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples() {
		v := float64(s.Power) * 10
		if math.Abs(v-math.Round(v)) > 1e-6 {
			t.Fatalf("sample %v not quantised to 0.1 W", s.Power)
		}
	}
}

func TestMeterDropoutKeepsBoundaries(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(100, 8, cluster.Util{CPU: 0.5}),
	}}
	mt, _ := NewMeter(MeterConfig{Interval: 1, DropRate: 0.3, Seed: 3})
	tr, err := mt.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() >= 101 {
		t.Errorf("no samples dropped: %d", tr.Len())
	}
	if tr.Len() < 40 {
		t.Errorf("too many samples dropped: %d", tr.Len())
	}
	start, end, _ := tr.Span()
	if start != 0 || end != 100 {
		t.Errorf("span [%v, %v] lost boundaries", start, end)
	}
	// Energy is still within a few percent despite dropout.
	exact, _ := m.ProfileTrace(lp)
	eExact, _ := exact.Energy()
	eDrop, _ := tr.Energy()
	if rel := math.Abs(float64(eDrop-eExact)) / float64(eExact); rel > 0.02 {
		t.Errorf("dropout energy error %.2f%%", rel*100)
	}
}

func TestMeterGlitchConfig(t *testing.T) {
	if _, err := NewMeter(MeterConfig{Interval: 1, GlitchRate: 1}); err == nil {
		t.Error("glitch rate 1 accepted")
	}
	if _, err := NewMeter(MeterConfig{Interval: 1, GlitchRate: 0.1, GlitchWatts: -5}); err == nil {
		t.Error("negative glitch magnitude accepted")
	}
}

func TestMeterGlitchesPerturbSamples(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(200, 8, cluster.Util{CPU: 0.5}),
	}}
	clean := WattsUpPRO(11)
	glitchy := clean
	glitchy.GlitchRate = 0.05
	glitchy.GlitchWatts = 60
	mtClean, _ := NewMeter(clean)
	mtGlitchy, _ := NewMeter(glitchy)
	a, err := mtClean.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mtGlitchy.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("glitches changed sample count: %d vs %d", a.Len(), b.Len())
	}
	// With a 60 W spike stddev at 5% rate, some samples must differ from
	// the clean trace by far more than the 0.5 W gauge noise ever could.
	big := 0
	for i := 0; i < a.Len(); i++ {
		if math.Abs(float64(a.At(i).Power-b.At(i).Power)) > 10 {
			big++
		}
	}
	if big == 0 {
		t.Error("no glitched samples observed at 5% rate over 200 samples")
	}
	if big > a.Len()/2 {
		t.Errorf("%d of %d samples glitched at 5%% rate", big, a.Len())
	}
	// Determinism: the same glitchy config reproduces the same trace.
	mtAgain, _ := NewMeter(glitchy)
	c, err := mtAgain.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if b.At(i) != c.At(i) {
			t.Fatalf("glitchy meter not deterministic at sample %d", i)
		}
	}
}

func TestEnergyOfMeasuredWindowMatchesMeanPower(t *testing.T) {
	m := newFireModel(t)
	lp := &cluster.LoadProfile{Phases: []cluster.Phase{
		cluster.UniformPhase(300, 8, cluster.Util{CPU: 1, Mem: 0.3, Net: 0.2}),
	}}
	mt, _ := NewMeter(WattsUpPRO(11))
	tr, err := mt.Measure(m, lp)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := tr.Energy()
	mean, _ := tr.MeanPower()
	if math.Abs(float64(e)-float64(mean)*300) > 1 {
		t.Errorf("energy %v inconsistent with mean power %v over 300 s", e, mean)
	}
	_ = units.Watts(0)
}

// TestMeasureRefusesNonFiniteDurations: a NaN or infinite phase, or
// phases whose total overflows, used to reach the sampling loop and
// panic sizing its buffers; the profile check must refuse them first.
func TestMeasureRefusesNonFiniteDurations(t *testing.T) {
	m := newFireModel(t)
	mt, err := NewMeter(WattsUpPRO(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, phases := range [][]units.Seconds{
		{units.Seconds(math.NaN())},
		{units.Seconds(math.Inf(1))},
		{units.Seconds(math.Inf(-1))},
		{60, units.Seconds(math.NaN())},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		lp := &cluster.LoadProfile{}
		for _, d := range phases {
			lp.Phases = append(lp.Phases, cluster.UniformPhase(d, 8, cluster.Util{CPU: 0.5}))
		}
		if _, err := mt.Measure(m, lp); err == nil {
			t.Errorf("phases of %v: measured", phases)
		}
	}
}
