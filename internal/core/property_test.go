package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// Property tests of TGI's definition (PAPER.md §1, Equations 2-4) over
// generated suites, for every scheme whose weights come from the
// measurements themselves.

var measuredSchemes = []Scheme{ArithmeticMean, TimeWeighted, EnergyWeighted, PowerWeighted}

// tgiCase is one generated evaluation: a test and a reference suite over
// the same benchmarks, plus the choices the properties vary.
type tgiCase struct {
	Test, Ref         []Measurement
	TestPerm, RefPerm []int   // reorderings of the two suites
	Scaled            int     // the benchmark whose performance is rescaled
	Factor            float64 // its scale factor
	Keep              []bool  // the surviving subset; at least one is kept
}

// Generate draws one to eight benchmarks whose performance, power, time
// and (half the time) separately metered energy each span several orders
// of magnitude, as the paper's mixed GFLOPS and MB/s suites do.
func (tgiCase) Generate(r *rand.Rand, _ int) reflect.Value {
	logUniform := func(lo, hi float64) float64 { return math.Pow(10, lo+r.Float64()*(hi-lo)) }
	measurement := func(i int) Measurement {
		m := Measurement{
			Benchmark:   fmt.Sprintf("B%d", i),
			Metric:      "U",
			Performance: logUniform(-2, 6),
			Power:       units.Watts(logUniform(1, 5)),
			Time:        units.Seconds(logUniform(0, 4)),
		}
		if r.Intn(2) == 0 {
			m.Energy = units.Joules(logUniform(1, 9))
		}
		return m
	}
	n := 1 + r.Intn(8)
	c := tgiCase{
		TestPerm: r.Perm(n),
		RefPerm:  r.Perm(n),
		Scaled:   r.Intn(n),
		Factor:   logUniform(-3, 3),
		Keep:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		c.Test = append(c.Test, measurement(i))
		c.Ref = append(c.Ref, measurement(i))
		c.Keep[i] = r.Intn(2) == 0
	}
	c.Keep[r.Intn(n)] = true
	return reflect.ValueOf(c)
}

func permuted(ms []Measurement, perm []int) []Measurement {
	out := make([]Measurement, len(ms))
	for i, j := range perm {
		out[i] = ms[j]
	}
	return out
}

// relClose reports whether a and b agree within 1e-12 relative.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// checkTGI runs prop on generated cases and fails the test on the first
// counterexample, naming it.
func checkTGI(t *testing.T, prop func(c tgiCase, s Scheme) error) {
	t.Helper()
	var failure error
	f := func(c tgiCase) bool {
		for _, s := range measuredSchemes {
			if err := prop(c, s); err != nil {
				failure = fmt.Errorf("%v: %w", s, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatalf("%v\n%v", failure, err)
	}
}

func TestPropertySelfReferenceIsOne(t *testing.T) {
	checkTGI(t, func(c tgiCase, s Scheme) error {
		got, err := Compute(c.Test, c.Test, s, nil)
		if err != nil {
			return err
		}
		if !relClose(got.TGI, 1) {
			return fmt.Errorf("TGI against itself = %v, want 1", got.TGI)
		}
		return nil
	})
}

func TestPropertyPermutationInvariant(t *testing.T) {
	checkTGI(t, func(c tgiCase, s Scheme) error {
		base, err := Compute(c.Test, c.Ref, s, nil)
		if err != nil {
			return err
		}
		got, err := Compute(permuted(c.Test, c.TestPerm), permuted(c.Ref, c.RefPerm), s, nil)
		if err != nil {
			return err
		}
		if !relClose(got.TGI, base.TGI) {
			return fmt.Errorf("reordering %v / %v moved TGI %v to %v", c.TestPerm, c.RefPerm, base.TGI, got.TGI)
		}
		return nil
	})
}

func TestPropertyPerformanceUnitInvariant(t *testing.T) {
	// Rescaling one benchmark's performance in both systems is a change
	// of its unit (GFLOPS to MFLOPS, say); REE normalises it away.
	checkTGI(t, func(c tgiCase, s Scheme) error {
		base, err := Compute(c.Test, c.Ref, s, nil)
		if err != nil {
			return err
		}
		test := append([]Measurement(nil), c.Test...)
		ref := append([]Measurement(nil), c.Ref...)
		test[c.Scaled].Performance *= c.Factor
		ref[c.Scaled].Performance *= c.Factor
		got, err := Compute(test, ref, s, nil)
		if err != nil {
			return err
		}
		if !relClose(got.TGI, base.TGI) {
			return fmt.Errorf("scaling %s by %v moved TGI %v to %v", c.Test[c.Scaled].Benchmark, c.Factor, base.TGI, got.TGI)
		}
		return nil
	})
}

func TestPropertyPartialMatchesSubset(t *testing.T) {
	checkTGI(t, func(c tgiCase, s Scheme) error {
		var subset []Measurement
		var expected []string
		for i, m := range c.Test {
			expected = append(expected, m.Benchmark)
			if c.Keep[i] {
				subset = append(subset, m)
			}
		}
		want, err := Compute(subset, c.Ref, s, nil)
		if err != nil {
			return err
		}
		got, err := ComputePartial(subset, c.Ref, s, nil, expected)
		if err != nil {
			return err
		}
		if !relClose(got.TGI, want.TGI) {
			return fmt.Errorf("partial TGI over %d of %d = %v, Compute over the subset = %v",
				len(subset), len(expected), got.TGI, want.TGI)
		}
		if missing := len(expected) - len(subset); len(got.Missing) != missing || got.Degraded != (missing > 0) {
			return fmt.Errorf("partial over %d of %d: Missing %v, Degraded %v",
				len(subset), len(expected), got.Missing, got.Degraded)
		}
		return nil
	})
}
