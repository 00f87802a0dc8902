package blas

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// naiveGemm is the reference implementation Gemm is checked against.
func naiveGemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*lda+p] * b[p*ldb+j]
			}
			c[i*ldc+j] = alpha*s + beta*c[i*ldc+j]
		}
	}
}

func randMat(rng *sim.RNG, rows, cols, ld int) []float64 {
	m := make([]float64, rows*ld)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m[i*ld+j] = rng.NormAt(0, 1)
		}
	}
	return m
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestLevel1(t *testing.T) {
	if d := Dot([]float64{1, 2}, []float64{3, 4}); d != 11 {
		t.Errorf("Dot = %v", d)
	}
	a, b := []float64{1, 2}, []float64{3, 4}
	Swap(a, b)
	if a[0] != 3 || b[1] != 2 {
		t.Errorf("Swap = %v %v", a, b)
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := sim.NewRNG(1)
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 2}, {64, 64, 64}, {65, 63, 70}, {128, 17, 96}, {200, 1, 7},
	}
	for _, s := range shapes {
		lda, ldb, ldc := s.k+3, s.n+1, s.n+2
		a := randMat(rng, s.m, s.k, lda)
		b := randMat(rng, s.k, s.n, ldb)
		c := randMat(rng, s.m, s.n, ldc)
		cRef := make([]float64, len(c))
		copy(cRef, c)
		Gemm(s.m, s.n, s.k, 1.3, a, lda, b, ldb, 0.7, c, ldc)
		naiveGemm(s.m, s.n, s.k, 1.3, a, lda, b, ldb, 0.7, cRef, ldc)
		if d := maxDiff(c, cRef); d > 1e-9 {
			t.Errorf("shape %+v: max diff %v", s, d)
		}
	}
}

func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta=0 must overwrite C even when C holds NaN (BLAS convention).
	a := []float64{1, 2}
	b := []float64{3, 4}
	c := []float64{math.NaN()}
	Gemm(1, 1, 2, 1, a, 2, b, 1, 0, c, 1)
	if c[0] != 11 {
		t.Errorf("beta=0 result = %v, want 11", c[0])
	}
}

func TestGemmEdgeCases(t *testing.T) {
	// Zero dimensions are no-ops and must not panic.
	Gemm(0, 5, 5, 1, nil, 1, nil, 1, 1, nil, 1)
	Gemm(5, 0, 5, 1, nil, 1, nil, 1, 1, nil, 1)
	c := []float64{1, 2, 3, 4}
	// k=0 with beta=2 just scales C.
	Gemm(2, 2, 0, 1, nil, 1, nil, 1, 2, c, 2)
	want := []float64{2, 4, 6, 8}
	if maxDiff(c, want) > 0 {
		t.Errorf("k=0 scale = %v", c)
	}
}

func TestGemmProperty(t *testing.T) {
	rng := sim.NewRNG(7)
	f := func(rm, rn, rk uint8) bool {
		m := int(rm%24) + 1
		n := int(rn%24) + 1
		k := int(rk%24) + 1
		a := randMat(rng, m, k, k)
		b := randMat(rng, k, n, n)
		c := randMat(rng, m, n, n)
		ref := make([]float64, len(c))
		copy(ref, c)
		Gemm(m, n, k, -0.5, a, k, b, n, 1.25, c, n)
		naiveGemm(m, n, k, -0.5, a, k, b, n, 1.25, ref, n)
		return maxDiff(c, ref) <= 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTrsmLowerUnitLeft(t *testing.T) {
	// L = [1 0; 0.5 1], B = L*X with X = [[1,2],[3,4]]
	l := []float64{1, 0, 0.5, 1}
	x := []float64{1, 2, 3, 4}
	b := make([]float64, 4)
	naiveGemm(2, 2, 2, 1, l, 2, x, 2, 0, b, 2)
	TrsmLowerUnitLeft(2, 2, l, 2, b, 2)
	if maxDiff(b, x) > 1e-12 {
		t.Errorf("trsm = %v, want %v", b, x)
	}
}

func TestTrsmLowerUnitLeftRandom(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, m := range []int{1, 2, 7, 32} {
		n := 5
		// Build a unit lower-triangular L.
		l := make([]float64, m*m)
		for i := 0; i < m; i++ {
			l[i*m+i] = 1
			for j := 0; j < i; j++ {
				l[i*m+j] = rng.NormAt(0, 0.5)
			}
		}
		x := randMat(rng, m, n, n)
		b := make([]float64, m*n)
		naiveGemm(m, n, m, 1, l, m, x, n, 0, b, n)
		TrsmLowerUnitLeft(m, n, l, m, b, n)
		if d := maxDiff(b, x); d > 1e-9 {
			t.Errorf("m=%d: diff %v", m, d)
		}
	}
}

func TestTrsvUpper(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{1, 2, 9, 40} {
		u := make([]float64, n*n)
		for i := 0; i < n; i++ {
			u[i*n+i] = 2 + rng.Float64() // well-conditioned diagonal
			for j := i + 1; j < n; j++ {
				u[i*n+j] = rng.NormAt(0, 0.5)
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormAt(0, 1)
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := i; j < n; j++ {
				s += u[i*n+j] * x[j]
			}
			b[i] = s
		}
		TrsvUpper(n, u, n, b)
		if d := maxDiff(b, x); d > 1e-8 {
			t.Errorf("n=%d: diff %v", n, d)
		}
	}
}

func TestGemmFlops(t *testing.T) {
	if f := GemmFlops(10, 20, 30); f != 12000 {
		t.Errorf("GemmFlops = %v", f)
	}
}

func BenchmarkGemm256(b *testing.B) {
	rng := sim.NewRNG(1)
	const n = 256
	a := randMat(rng, n, n, n)
	bb := randMat(rng, n, n, n)
	c := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(n, n, n, 1, a, n, bb, n, 0, c, n)
	}
	b.ReportMetric(GemmFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
