package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/units"
)

func m(bench, metric string, perf, power, tm float64) Measurement {
	return Measurement{
		Benchmark:   bench,
		Metric:      metric,
		Performance: perf,
		Power:       units.Watts(power),
		Time:        units.Seconds(tm),
	}
}

// Paper Table I-style reference suite.
func refSuite() []Measurement {
	return []Measurement{
		m("HPL", "GFLOPS", 8100, 30000, 2800),
		m("STREAM", "MBPS", 760000, 26000, 900),
		m("IOzone", "MBPS", 10400, 21000, 1200),
	}
}

func testSuite() []Measurement {
	return []Measurement{
		m("HPL", "GFLOPS", 890, 2900, 3400),
		m("STREAM", "MBPS", 180000, 2400, 700),
		m("IOzone", "MBPS", 380, 2100, 800),
	}
}

func TestMeasurementValidate(t *testing.T) {
	good := m("HPL", "GFLOPS", 100, 200, 300)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Measurement{
		m("", "GFLOPS", 100, 200, 300),
		m("HPL", "GFLOPS", 0, 200, 300),
		m("HPL", "GFLOPS", -5, 200, 300),
		m("HPL", "GFLOPS", math.NaN(), 200, 300),
		m("HPL", "GFLOPS", 100, 0, 300),
		m("HPL", "GFLOPS", 100, 200, 0),
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad measurement %d validated", i)
		}
	}
	negE := good
	negE.Energy = -1
	if err := negE.Validate(); err == nil {
		t.Error("negative energy validated")
	}
}

func TestEnergyJoulesFallback(t *testing.T) {
	x := m("HPL", "GFLOPS", 100, 200, 300)
	if e := x.EnergyJoules(); e != 60000 {
		t.Errorf("fallback energy = %v", e)
	}
	x.Energy = 59000 // meter-integrated value takes precedence
	if e := x.EnergyJoules(); e != 59000 {
		t.Errorf("explicit energy = %v", e)
	}
}

func TestEEEquation2(t *testing.T) {
	x := m("HPL", "GFLOPS", 900, 3000, 100)
	ee, err := EE(x)
	if err != nil || ee != 0.3 {
		t.Errorf("EE = %v, %v", ee, err)
	}
	if _, err := EE(Measurement{}); err == nil {
		t.Error("invalid measurement accepted")
	}
}

func TestREEEquation3(t *testing.T) {
	test := m("HPL", "GFLOPS", 900, 3000, 100)  // EE = 0.3
	ref := m("HPL", "GFLOPS", 8000, 32000, 100) // EE = 0.25
	ree, err := REE(test, ref)
	if err != nil || math.Abs(ree-1.2) > 1e-12 {
		t.Errorf("REE = %v, %v", ree, err)
	}
}

func TestREERejectsMismatches(t *testing.T) {
	a := m("HPL", "GFLOPS", 1, 1, 1)
	b := m("STREAM", "MBPS", 1, 1, 1)
	if _, err := REE(a, b); err == nil {
		t.Error("benchmark mismatch accepted")
	}
	c := m("HPL", "MBPS", 1, 1, 1)
	if _, err := REE(a, c); err == nil {
		t.Error("metric mismatch accepted")
	}
}

func TestREESelfIsOne(t *testing.T) {
	f := func(perf, power, tm float64) bool {
		p := math.Abs(math.Mod(perf, 1e6)) + 1
		w := math.Abs(math.Mod(power, 1e5)) + 1
		s := math.Abs(math.Mod(tm, 1e4)) + 1
		x := m("X", "U", p, w, s)
		ree, err := REE(x, x)
		return err == nil && math.Abs(ree-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestREEScaleInvariance(t *testing.T) {
	// Multiplying both systems' performance by the same constant (a unit
	// change, e.g. MB/s -> GB/s) must not change REE.
	test := m("S", "MBPS", 500, 100, 10)
	ref := m("S", "MBPS", 900, 300, 10)
	r1, err := REE(test, ref)
	if err != nil {
		t.Fatal(err)
	}
	test.Performance *= 1000
	ref.Performance *= 1000
	r2, err := REE(test, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-r2) > 1e-12 {
		t.Errorf("REE not scale invariant: %v vs %v", r1, r2)
	}
}

func TestWeightsSchemes(t *testing.T) {
	ms := []Measurement{
		m("A", "U", 1, 100, 10), // e = 1000
		m("B", "U", 1, 300, 30), // e = 9000
	}
	cases := []struct {
		s    Scheme
		want []float64
	}{
		{ArithmeticMean, []float64{0.5, 0.5}},
		{TimeWeighted, []float64{0.25, 0.75}},
		{PowerWeighted, []float64{0.25, 0.75}},
		{EnergyWeighted, []float64{0.1, 0.9}},
	}
	for _, c := range cases {
		ws, err := Weights(c.s, ms, nil)
		if err != nil {
			t.Errorf("%v: %v", c.s, err)
			continue
		}
		for i := range ws {
			if math.Abs(ws[i]-c.want[i]) > 1e-12 {
				t.Errorf("%v weights = %v, want %v", c.s, ws, c.want)
				break
			}
		}
		if !stats.SumsToOne(ws, 1e-12) {
			t.Errorf("%v weights do not sum to one", c.s)
		}
	}
}

func TestWeightsCustom(t *testing.T) {
	ms := []Measurement{m("A", "U", 1, 1, 1), m("B", "U", 1, 1, 1)}
	ws, err := Weights(Custom, ms, []float64{3, 1})
	if err != nil || math.Abs(ws[0]-0.75) > 1e-12 {
		t.Errorf("custom weights = %v, %v", ws, err)
	}
	if _, err := Weights(Custom, ms, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Weights(Custom, ms, []float64{-1, 2}); err == nil {
		t.Error("negative custom weight accepted")
	}
	if _, err := Weights(Scheme(42), ms, nil); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Weights(ArithmeticMean, nil, nil); err == nil {
		t.Error("empty measurements accepted")
	}
}

func TestComputeTGIHandExample(t *testing.T) {
	// Two benchmarks with REE 1.2 and 0.4; arithmetic mean TGI = 0.8.
	test := []Measurement{
		m("A", "U", 120, 100, 10), // EE 1.2
		m("B", "U", 40, 100, 10),  // EE 0.4
	}
	ref := []Measurement{
		m("A", "U", 100, 100, 10), // EE 1.0
		m("B", "U", 100, 100, 10),
	}
	c, err := Compute(test, ref, ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.TGI-0.8) > 1e-12 {
		t.Errorf("TGI = %v, want 0.8", c.TGI)
	}
	if len(c.REE) != 2 || math.Abs(c.REE[0]-1.2) > 1e-12 || math.Abs(c.REE[1]-0.4) > 1e-12 {
		t.Errorf("REE = %v", c.REE)
	}
}

func TestComputeAgainstSelfIsOne(t *testing.T) {
	// TGI of the reference system measured against itself is exactly 1
	// under every weighting scheme — the anchor property of the metric.
	ref := refSuite()
	for _, s := range []Scheme{ArithmeticMean, TimeWeighted, EnergyWeighted, PowerWeighted} {
		c, err := Compute(ref, ref, s, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if math.Abs(c.TGI-1) > 1e-12 {
			t.Errorf("%v: self-TGI = %v", s, c.TGI)
		}
	}
}

func TestComputeRequiresReference(t *testing.T) {
	test := testSuite()
	ref := refSuite()[:2] // drop IOzone
	if _, err := Compute(test, ref, ArithmeticMean, nil); err == nil ||
		!strings.Contains(err.Error(), "IOzone") {
		t.Errorf("missing reference err = %v", err)
	}
}

func TestComputeRejectsDuplicates(t *testing.T) {
	dup := append(testSuite(), testSuite()[0])
	if _, err := Compute(dup, refSuite(), ArithmeticMean, nil); err == nil {
		t.Error("duplicate test measurement accepted")
	}
	dupRef := append(refSuite(), refSuite()[0])
	if _, err := Compute(testSuite(), dupRef, ArithmeticMean, nil); err == nil {
		t.Error("duplicate reference accepted")
	}
}

func TestComputeBoundedByComponentREEs(t *testing.T) {
	// A convex combination of REEs lies between min and max REE — the
	// paper's "bounded by the benchmark with least REE" observation is the
	// lower half of this.
	c, err := Compute(testSuite(), refSuite(), ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	min, max := slices.Min(c.REE), slices.Max(c.REE)
	if c.TGI < min-1e-12 || c.TGI > max+1e-12 {
		t.Errorf("TGI %v outside REE range [%v, %v]", c.TGI, min, max)
	}
}

func TestComputeConvexityProperty(t *testing.T) {
	f := func(seeds [6]float64) bool {
		pos := func(v, cap float64) float64 { return math.Abs(math.Mod(v, cap)) + 1 }
		test := []Measurement{
			m("A", "U", pos(seeds[0], 1e4), pos(seeds[1], 1e3), 10),
			m("B", "U", pos(seeds[2], 1e4), pos(seeds[3], 1e3), 20),
			m("C", "U", pos(seeds[4], 1e4), pos(seeds[5], 1e3), 30),
		}
		ref := []Measurement{
			m("A", "U", 100, 100, 10),
			m("B", "U", 100, 100, 10),
			m("C", "U", 100, 100, 10),
		}
		for _, s := range []Scheme{ArithmeticMean, TimeWeighted, EnergyWeighted, PowerWeighted} {
			c, err := Compute(test, ref, s, nil)
			if err != nil {
				return false
			}
			min, max := slices.Min(c.REE), slices.Max(c.REE)
			if c.TGI < min-1e-9 || c.TGI > max+1e-9 {
				return false
			}
			if !stats.SumsToOne(c.Weights, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCustomWeightEmphasis(t *testing.T) {
	// The paper's example: a memory-heavy user weights STREAM higher. With
	// all weight on STREAM, TGI equals STREAM's REE.
	test := testSuite()
	ref := refSuite()
	c, err := Compute(test, ref, Custom, []float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	streamREE, err := REE(test[1], ref[1])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.TGI-streamREE) > 1e-12 {
		t.Errorf("all-STREAM TGI = %v, want %v", c.TGI, streamREE)
	}
}

func TestComputeWithEDP(t *testing.T) {
	c, err := ComputeWith(InverseEDP, testSuite(), refSuite(), ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.TGI <= 0 || math.IsNaN(c.TGI) {
		t.Errorf("EDP TGI = %v", c.TGI)
	}
	// Self-anchor holds under EDP too.
	self, err := ComputeWith(InverseEDP, refSuite(), refSuite(), ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(self.TGI-1) > 1e-12 {
		t.Errorf("EDP self-TGI = %v", self.TGI)
	}
}

// desiredPropertyHolds checks Section III's requirement on the metric: at
// fixed performance, the efficiency must be inversely proportional to the
// energy consumed. It evaluates ee on a measurement and on a copy with k×
// the energy (and the corresponding power at fixed time), and reports
// whether efficiency scaled by 1/k within tol.
func desiredPropertyHolds(ee EEFunc, m Measurement, k, tol float64) bool {
	if err := m.Validate(); err != nil || k <= 0 {
		return false
	}
	scaled := m
	scaled.Power = m.Power * units.Watts(k)
	scaled.Energy = units.Joules(float64(m.EnergyJoules()) * k)
	base := ee(m)
	got := ee(scaled)
	if base <= 0 || got <= 0 {
		return false
	}
	want := base / k
	return math.Abs(got-want) <= tol*want
}

func TestDesiredProperty(t *testing.T) {
	x := m("HPL", "GFLOPS", 900, 3000, 100)
	// Both shipped metrics satisfy the Section III property.
	if !desiredPropertyHolds(PerfPerWatt, x, 2, 1e-9) {
		t.Error("perf/watt fails the desired property")
	}
	if !desiredPropertyHolds(InverseEDP, x, 3, 1e-9) {
		t.Error("inverse EDP fails the desired property")
	}
	// A metric ignoring energy does not.
	perfOnly := func(m Measurement) float64 { return m.Performance }
	if desiredPropertyHolds(perfOnly, x, 2, 1e-9) {
		t.Error("performance-only metric passed the desired property")
	}
	if desiredPropertyHolds(PerfPerWatt, x, 0, 1e-9) {
		t.Error("k=0 accepted")
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		ArithmeticMean: "arithmetic-mean",
		TimeWeighted:   "time-weighted",
		EnergyWeighted: "energy-weighted",
		PowerWeighted:  "power-weighted",
		Custom:         "custom",
	} {
		if s.String() != want {
			t.Errorf("%d -> %q, want %q", int(s), s.String(), want)
		}
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme name empty")
	}
}

func TestParseScheme(t *testing.T) {
	// Every printed name parses back to its scheme.
	for s := ArithmeticMean; s <= Custom; s++ {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for in, want := range map[string]Scheme{
		"am": ArithmeticMean, "AM": ArithmeticMean, "arithmetic": ArithmeticMean,
		"time": TimeWeighted, "Time-Weighted": TimeWeighted,
		"energy": EnergyWeighted, "power": PowerWeighted,
	} {
		if got, err := ParseScheme(in); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "", Scheme(9).String()} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
		}
	}
}
