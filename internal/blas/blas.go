// Package blas implements the dense linear-algebra kernels the HPL
// benchmark is built from: the level-1 swap and dot, triangular solves
// (trsm, trsv) and a cache-blocked matrix-matrix multiply (gemm).
//
// All matrices are row-major with an explicit leading dimension (the stride
// between consecutive rows), matching the layout the hpl package uses for
// its block-cyclic panels. Only the variants HPL needs are provided; this is
// a benchmark substrate, not a general BLAS.
package blas

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	var s float64
	_ = y[len(x)-1]
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Swap exchanges x and y elementwise.
func Swap(x, y []float64) {
	_ = y[len(x)-1]
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}

// TrsmLowerUnitLeft solves L·X = B in place, where L is m×m lower-triangular
// with an implicit unit diagonal (strictly-lower entries read from l) and B
// is m×n row-major. HPL uses this to propagate the panel factorisation into
// the trailing block row.
func TrsmLowerUnitLeft(m, n int, l []float64, ldl int, b []float64, ldb int) {
	for i := 1; i < m; i++ {
		bi := b[i*ldb : i*ldb+n]
		for k := 0; k < i; k++ {
			lik := l[i*ldl+k]
			if lik == 0 {
				continue
			}
			bk := b[k*ldb : k*ldb+n]
			for j := range bi {
				bi[j] -= lik * bk[j]
			}
		}
	}
}

// TrsvUpper solves U·x = b in place (b overwritten with x), where U is n×n
// upper-triangular (non-unit diagonal) row-major. Used by the final back
// substitution.
func TrsvUpper(n int, u []float64, ldu int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := u[i*ldu:]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}

// gemmBlock is the blocking factor for Gemm. Chosen so three blocks of
// doubles fit comfortably in a typical L1/L2 cache.
const gemmBlock = 64

// Gemm computes C = alpha·A·B + beta·C where A is m×k, B is k×n and C is
// m×n, all row-major with the given leading dimensions. The loop nest is
// blocked on all three dimensions with an i-k-j innermost order so the
// innermost loop streams both B and C rows sequentially.
func Gemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	// Apply beta first so the blocked accumulation can be pure +=.
	if beta != 1 {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if k == 0 || alpha == 0 {
		return
	}
	for ii := 0; ii < m; ii += gemmBlock {
		iMax := min(ii+gemmBlock, m)
		for kk := 0; kk < k; kk += gemmBlock {
			kMax := min(kk+gemmBlock, k)
			for jj := 0; jj < n; jj += gemmBlock {
				jMax := min(jj+gemmBlock, n)
				for i := ii; i < iMax; i++ {
					arow := a[i*lda:]
					crow := c[i*ldc:]
					for kk2 := kk; kk2 < kMax; kk2++ {
						aik := alpha * arow[kk2]
						if aik == 0 {
							continue
						}
						brow := b[kk2*ldb:]
						for j := jj; j < jMax; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
}

// GemmFlops returns the floating-point operation count of one Gemm call,
// used by benchmark drivers to convert elapsed time into FLOPS.
func GemmFlops(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
