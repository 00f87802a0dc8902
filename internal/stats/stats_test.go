package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
}

func TestWeightedHarmonicMean(t *testing.T) {
	// Equal weights reduce to the plain harmonic mean.
	h, err := WeightedHarmonicMean([]float64{2, 6}, []float64{1, 1})
	if err != nil || !almost(h, 3, 1e-12) {
		t.Errorf("WeightedHarmonicMean = %v, %v", h, err)
	}
	// All weight on one element returns that element.
	h, err = WeightedHarmonicMean([]float64{2, 6}, []float64{0, 5})
	if err != nil || !almost(h, 6, 1e-12) {
		t.Errorf("WeightedHarmonicMean single = %v, %v", h, err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || !almost(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, %v", v, err)
	}
	if _, err := Variance([]float64{1}); err == nil {
		t.Error("variance of single sample accepted")
	}
	s, _ := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// Perfect positive linear relationship.
	ys := []float64{3, 5, 7, 9, 11}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("Pearson perfect = %v, %v", r, err)
	}
	// Perfect negative.
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1, 1e-12) {
		t.Errorf("Pearson negative = %v", r)
	}
	// Zero variance input.
	if _, err := Pearson(xs, []float64{5, 5, 5, 5, 5}); err == nil {
		t.Error("Pearson accepted constant series")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n < 3 {
			return true
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		varied := false
		for i := 0; i < n; i++ {
			xs[i] = math.Mod(sanitize(a[i]), 1e6)
			ys[i] = math.Mod(sanitize(b[i]), 1e6)
			if i > 0 && (xs[i] != xs[0] || ys[i] != ys[0]) {
				varied = true
			}
		}
		if !varied {
			return true
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // zero variance in one coordinate is allowed to error
		}
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func TestPearsonInvariantUnderAffine(t *testing.T) {
	xs := []float64{1, 4, 2, 8, 5, 7}
	ys := []float64{2, 3, 1, 9, 4, 6}
	r1, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = 3*x + 17
	}
	r2, err := Pearson(scaled, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r1, r2, 1e-12) {
		t.Errorf("Pearson not affine-invariant: %v vs %v", r1, r2)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	a, b, err := LinearFit(xs, ys)
	if err != nil || !almost(a, 2, 1e-12) || !almost(b, 1, 1e-12) {
		t.Errorf("LinearFit = %v, %v, %v", a, b, err)
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("LinearFit accepted degenerate x")
	}
}

func TestNormalize(t *testing.T) {
	ws, err := Normalize([]float64{1, 3})
	if err != nil || !almost(ws[0], 0.25, 1e-12) || !almost(ws[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v, %v", ws, err)
	}
	if !SumsToOne(ws, 1e-12) {
		t.Error("normalized weights do not sum to one")
	}
	if _, err := Normalize([]float64{0, 0}); err != ErrBadWeights {
		t.Errorf("Normalize zeros err = %v", err)
	}
	if _, err := Normalize([]float64{1, -1}); err != ErrBadWeights {
		t.Errorf("Normalize negative err = %v", err)
	}
	if _, err := Normalize(nil); err != ErrEmpty {
		t.Errorf("Normalize(nil) err = %v", err)
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		ws := make([]float64, 0, len(raw))
		for _, v := range raw {
			ws = append(ws, math.Abs(math.Mod(sanitize(v), 1e6)))
		}
		out, err := Normalize(ws)
		if err != nil {
			return true // all-zero or empty inputs may error
		}
		return SumsToOne(out, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
