// Package stats implements the small statistics toolkit the green-index
// pipeline needs: the arithmetic and weighted harmonic means, dispersion,
// Pearson correlation, simple linear regression, weight normalisation and
// tolerance comparison.
//
// The paper's evaluation (Section IV.B, Table II) relies on the Pearson
// correlation coefficient between the per-benchmark efficiency curves and the
// TGI curve under each weighting scheme; the weighting schemes themselves
// (Section III) are weighted arithmetic means.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned when a statistic is requested over no data.
var ErrEmpty = errors.New("stats: empty data set")

// ErrMismatch is returned when paired slices differ in length.
var ErrMismatch = errors.New("stats: mismatched lengths")

// ErrBadWeights is returned when weights are invalid (negative, all zero,
// or mismatched with the data).
var ErrBadWeights = errors.New("stats: invalid weights")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// WeightedHarmonicMean returns Σw_i / Σ(w_i/x_i), the weighted harmonic mean.
// John (2004), cited by the paper, shows this is the right aggregate for
// rate-style metrics when weights are the per-component work shares.
func WeightedHarmonicMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ws) {
		return 0, ErrMismatch
	}
	var wsum, den float64
	for i, x := range xs {
		if ws[i] < 0 || math.IsNaN(ws[i]) {
			return 0, ErrBadWeights
		}
		if x <= 0 {
			return 0, errors.New("stats: harmonic mean requires positive values")
		}
		wsum += ws[i]
		den += ws[i] / x
	}
	if wsum == 0 || den == 0 {
		return 0, ErrBadWeights
	}
	return wsum / den, nil
}

// Variance returns the unbiased (n-1) sample variance.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, errors.New("stats: variance requires at least two samples")
	}
	m, _ := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Covariance returns the unbiased sample covariance of the paired samples.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatch
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: covariance requires at least two samples")
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1), nil
}

// Pearson returns the Pearson correlation coefficient between the paired
// samples, as in Equation (17) of the paper. The result lies in [-1, +1].
// An error is returned if either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return 0, err
	}
	sx, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	sy, err := StdDev(ys)
	if err != nil {
		return 0, err
	}
	if sx == 0 || sy == 0 {
		return 0, errors.New("stats: zero variance in correlation input")
	}
	r := cov / (sx * sy)
	// Guard against floating-point excursions outside [-1, 1].
	return math.Max(-1, math.Min(1, r)), nil
}

// LinearFit returns the least-squares slope and intercept of y = a·x + b.
//
//greenvet:allow unusedexport -- a root benchmark or test uses it: bench_test.go
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, ErrMismatch
	}
	if len(xs) < 2 {
		return 0, 0, errors.New("stats: fit requires at least two samples")
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: degenerate x values in fit")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	return slope, intercept, nil
}

// Normalize returns ws scaled so the entries sum to one. Entries must be
// non-negative with a positive sum. This is how the paper turns raw time,
// energy and power observations into TGI weighting factors (Eqs. 10-12).
func Normalize(ws []float64) ([]float64, error) {
	if len(ws) == 0 {
		return nil, ErrEmpty
	}
	sum := 0.0
	for _, w := range ws {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, ErrBadWeights
		}
		sum += w
	}
	if sum == 0 {
		return nil, ErrBadWeights
	}
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w / sum
	}
	return out, nil
}

// SumsToOne reports whether ws sums to 1 within tol.
func SumsToOne(ws []float64, tol float64) bool {
	s := 0.0
	for _, w := range ws {
		s += w
	}
	return math.Abs(s-1) <= tol
}

// ApproxEqual reports whether a and b agree within tol, absolutely for
// values near zero and relatively otherwise. This is the approved way
// to compare computed floats — exact ==/!= silently flips with rounding
// and evaluation order, and greenvet's floateq analyzer rejects it
// outside this package.
func ApproxEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}
