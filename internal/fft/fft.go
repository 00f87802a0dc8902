// Package fft implements the HPC Challenge FFT benchmark: a radix-2
// Cooley-Tukey fast Fourier transform over complex doubles, verified by an
// inverse round trip and against a direct DFT. HPCC reports FFT performance
// as GFLOPS using the canonical 5·N·log₂N operation count.
//
// The paper builds TGI on "a benchmark suite [that] stresses different
// components" and names HPCC — whose seven tests include FFT — as the
// performance-side precedent; this package is one of the suite extensions
// that take this reproduction from the paper's three benchmarks to the full
// HPCC-style seven (see suite.RunExtended).
package fft

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// FlopCount returns the canonical FFT operation count, 5·n·log₂(n).
func FlopCount(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// Transform performs an in-place forward FFT of x, whose length must be a
// power of two.
func Transform(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// Inverse performs an in-place inverse FFT (normalised by 1/n).
func Inverse(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := Transform(x); err != nil {
		return err
	}
	inv := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
	return nil
}

// Config describes one native benchmark run.
type Config struct {
	// LogN is the transform size exponent (vector length 2^LogN).
	LogN int
	// Batches is how many independent transforms each trial performs;
	// 0 means max(1, GOMAXPROCS) so all workers stay busy.
	Batches int
	// Trials is the repetition count; the best rate is reported. 0 means 5.
	Trials int
	// Seed generates the input signal.
	Seed uint64
}

// Result is the outcome of a native run.
type Result struct {
	N        int
	Batches  int
	GFLOPS   float64 // best-trial rate over all batches
	BestTime units.Seconds
	MaxError float64 // round-trip error of the checked batch
	Passed   bool
}

// Run executes batched FFTs in parallel, reports the best GFLOPS, and
// verifies one batch by inverse round trip.
func Run(cfg Config) (*Result, error) {
	if cfg.LogN < 1 || cfg.LogN > 28 {
		return nil, errors.New("fft: LogN must be in [1, 28]")
	}
	n := 1 << cfg.LogN
	batches := cfg.Batches
	if batches <= 0 {
		batches = runtime.GOMAXPROCS(0)
		if batches < 1 {
			batches = 1
		}
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 5
	}
	rng := sim.NewRNG(cfg.Seed + 0xFF7)
	data := make([][]complex128, batches)
	orig := make([]complex128, n)
	for b := range data {
		data[b] = make([]complex128, n)
		for i := range data[b] {
			data[b][i] = complex(rng.NormAt(0, 1), rng.NormAt(0, 1))
		}
	}
	copy(orig, data[0])

	var best float64
	flops := FlopCount(n) * float64(batches)
	var firstErr error
	var mu sync.Mutex
	for t := 0; t < trials; t++ {
		start := time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		var wg sync.WaitGroup
		for b := range data {
			wg.Add(1)
			go func(v []complex128) {
				defer wg.Done()
				if err := Transform(v); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(data[b])
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		el := time.Since(start).Seconds() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		if rate := flops / el / 1e9; rate > best {
			best = rate
		}
		// Undo so every trial transforms the same input.
		for b := range data {
			if err := Inverse(data[b]); err != nil {
				return nil, err
			}
		}
	}
	// Round-trip error on batch 0 after trials forward+inverse pairs.
	maxErr := 0.0
	for i := range orig {
		if d := cmplx.Abs(data[0][i] - orig[i]); d > maxErr {
			maxErr = d
		}
	}
	tol := 1e-9 * float64(cfg.LogN) * float64(trials)
	return &Result{
		N:        n,
		Batches:  batches,
		GFLOPS:   best,
		BestTime: units.Seconds(flops / (best * 1e9)),
		MaxError: maxErr,
		Passed:   maxErr < tol+1e-10,
	}, nil
}
