package series

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// referenceScalars is Trace.Energy, MeanPower and PeakPower as they were
// written before Fold: one loop each over the samples.
func referenceScalars(ss []Sample) (energy, mean, peak float64, ok bool) {
	if len(ss) < 2 {
		return 0, 0, 0, false
	}
	for i := 1; i < len(ss); i++ {
		a, b := ss[i-1], ss[i]
		energy += 0.5 * float64(a.Power+b.Power) * float64(b.At-a.At)
	}
	mean = float64(ss[0].Power)
	if start, end := ss[0].At, ss[len(ss)-1].At; end != start { //greenvet:allow floateq -- zero-span guard: start and end are the same stored sample time
		mean = float64(units.MeanPower(units.Joules(energy), end-start))
	}
	peak = float64(ss[0].Power)
	for _, s := range ss[1:] {
		if float64(s.Power) > peak {
			peak = float64(s.Power)
		}
	}
	return energy, mean, peak, true
}

// TestFoldMatchesReference folds random traces (repeated timestamps,
// negative and repeated powers, the peak anywhere, zero spans) both
// through Trace.Fold and sample by sample through Fold.Add, and checks
// each against the reference loops bit for bit.
func TestFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12)
		tr := New(n)
		at := units.Seconds(rng.NormFloat64() * 100)
		for i := 0; i < n; i++ {
			if trial%7 != 0 && rng.Intn(4) > 0 { // trial%7 == 0: zero span
				at += units.Seconds(rng.Float64() * 3)
			}
			p := units.Watts(rng.NormFloat64() * 50)
			if rng.Intn(5) == 0 {
				p = units.Watts(math.Round(float64(p)))
			}
			if err := tr.Append(at, p); err != nil {
				t.Fatal(err)
			}
		}
		var added Fold
		for _, s := range tr.Samples() {
			added.Add(s.At, s.Power)
		}
		energy, mean, peak, ok := referenceScalars(tr.Samples())
		for _, f := range []Fold{tr.Fold(), added} {
			if f.Len() != n {
				t.Fatalf("trial %d: fold of %d samples, trace of %d", trial, f.Len(), n)
			}
			e, errE := f.Energy()
			m, errM := f.MeanPower()
			p, errP := f.PeakPower()
			if (errE == nil) != ok || (errM == nil) != ok {
				t.Fatalf("trial %d: %d samples gave errors %v, %v", trial, n, errE, errM)
			}
			if (errP == nil) != (n > 0) {
				t.Fatalf("trial %d: %d samples gave peak error %v", trial, n, errP)
			}
			if !ok {
				continue
			}
			if bits(float64(e)) != bits(energy) || bits(float64(m)) != bits(mean) || bits(float64(p)) != bits(peak) {
				t.Fatalf("trial %d: fold (%v J, %v W, peak %v W), reference (%v J, %v W, peak %v W)",
					trial, e, m, p, energy, mean, peak)
			}
		}
	}
}
