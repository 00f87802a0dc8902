package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAggregateArithmetic(t *testing.T) {
	got, err := Aggregate(Arithmetic, []float64{1, 3}, []float64{0.5, 0.5})
	if err != nil || got != 2 {
		t.Errorf("arithmetic = %v, %v", got, err)
	}
}

func TestAggregateHarmonic(t *testing.T) {
	got, err := Aggregate(Harmonic, []float64{2, 6}, []float64{0.5, 0.5})
	if err != nil || math.Abs(got-3) > 1e-12 {
		t.Errorf("harmonic = %v, %v", got, err)
	}
}

func TestAggregateGeometric(t *testing.T) {
	// 2x better and 2x worse cancel exactly under the geometric mean.
	got, err := Aggregate(Geometric, []float64{2, 0.5}, []float64{0.5, 0.5})
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("geometric = %v, %v", got, err)
	}
	if _, err := Aggregate(Geometric, []float64{1, -1}, []float64{0.5, 0.5}); err == nil {
		t.Error("negative REE accepted by geometric")
	}
}

func TestAggregateValidation(t *testing.T) {
	if _, err := Aggregate(Arithmetic, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Aggregate(Arithmetic, []float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Aggregate(Arithmetic, []float64{1, 2}, []float64{0.7, 0.7}); err == nil {
		t.Error("unnormalised weights accepted")
	}
	if _, err := Aggregate(Aggregator(9), []float64{1}, []float64{1}); err == nil {
		t.Error("unknown aggregator accepted")
	}
}

// AM >= GM >= HM over positive REEs with equal weights.
func TestAggregateMeanInequality(t *testing.T) {
	f := func(a, b, c float64) bool {
		ree := []float64{
			math.Abs(math.Mod(a, 10)) + 0.1,
			math.Abs(math.Mod(b, 10)) + 0.1,
			math.Abs(math.Mod(c, 10)) + 0.1,
		}
		w := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
		am, e1 := Aggregate(Arithmetic, ree, w)
		gm, e2 := Aggregate(Geometric, ree, w)
		hm, e3 := Aggregate(Harmonic, ree, w)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		eps := 1e-9 * am
		return am >= gm-eps && gm >= hm-eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComputeAggregatedSelfAnchors(t *testing.T) {
	ref := refSuite()
	for _, a := range []Aggregator{Arithmetic, Harmonic, Geometric} {
		c, err := ComputeAggregated(a, ref, ref, ArithmeticMean, nil)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if math.Abs(c.TGI-1) > 1e-12 {
			t.Errorf("%v self-TGI = %v", a, c.TGI)
		}
	}
}

func TestHarmonicDominatedByWorstComponent(t *testing.T) {
	// Harmonic TGI hugs the weakest subsystem far tighter than arithmetic —
	// the behaviour a "bounded by least REE" consumer actually wants.
	test := testSuite()
	ref := refSuite()
	am, err := ComputeAggregated(Arithmetic, test, ref, ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := ComputeAggregated(Harmonic, test, ref, ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	minREE := math.Inf(1)
	for _, r := range am.REE {
		minREE = math.Min(minREE, r)
	}
	if !(hm.TGI < am.TGI) {
		t.Errorf("harmonic %v not below arithmetic %v", hm.TGI, am.TGI)
	}
	if (hm.TGI-minREE)/minREE > (am.TGI-minREE)/minREE {
		t.Error("harmonic not closer to the worst REE")
	}
}

func TestAggregatorString(t *testing.T) {
	if Arithmetic.String() != "arithmetic" || Harmonic.String() != "harmonic" ||
		Geometric.String() != "geometric" || Aggregator(7).String() == "" {
		t.Error("aggregator names wrong")
	}
}

func TestParseAggregator(t *testing.T) {
	// Every printed name parses back to its aggregator.
	for a := Arithmetic; a <= Geometric; a++ {
		if got, err := ParseAggregator(a.String()); err != nil || got != a {
			t.Errorf("ParseAggregator(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for in, want := range map[string]Aggregator{
		"": Arithmetic, "am": Arithmetic, "hm": Harmonic, "GM": Geometric,
	} {
		if got, err := ParseAggregator(in); err != nil || got != want {
			t.Errorf("ParseAggregator(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"median", Aggregator(7).String()} {
		if _, err := ParseAggregator(bad); err == nil {
			t.Errorf("ParseAggregator(%q) accepted", bad)
		}
	}
}
