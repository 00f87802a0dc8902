// Package stream implements the STREAM sustainable-memory-bandwidth
// benchmark — the memory component of the paper's TGI suite. The four
// canonical kernels are provided (Copy, Scale, Add, Triad); the paper's
// evaluation uses Triad (Equation 16: C = α·A + B), "the most commonly used
// computation in scientific computing".
//
// Native mode runs the kernels on the host with parallel workers and
// reports the best sustained rate over repeated trials, exactly as the
// reference STREAM does. Simulated mode (model.go) evaluates a per-node
// bandwidth-saturation model against a machine spec.
package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// Kernel identifies one STREAM operation.
type Kernel int

// The four STREAM kernels.
const (
	Copy Kernel = iota
	Scale
	Add
	Triad
)

func (k Kernel) String() string {
	switch k {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// BytesPerElement returns the memory traffic per vector element of the
// kernel (reads + writes, 8-byte doubles), as defined by the STREAM rules.
func (k Kernel) BytesPerElement() int {
	switch k {
	case Copy, Scale:
		return 16 // one read + one write
	case Add, Triad:
		return 24 // two reads + one write
	default:
		return 0
	}
}

// Config describes one native STREAM run.
type Config struct {
	// N is the vector length. STREAM's rule of thumb: at least 4× the
	// last-level cache so the arrays cannot be cached.
	N int
	// Workers is the number of parallel workers; 0 means GOMAXPROCS.
	Workers int
	// Trials is the number of repetitions; the best rate is reported
	// (STREAM convention). 0 means 10.
	Trials int
	// Scalar is the α of Scale and Triad; 0 means 3.0 (the reference value).
	Scalar float64
}

// Result is the outcome of one kernel's native run.
type Result struct {
	Kernel    Kernel
	N         int
	Workers   int
	Trials    int
	Best      units.BytesPerSec // best sustained rate (STREAM convention)
	Avg       units.BytesPerSec
	BestTime  units.Seconds
	Validated bool
}

// Run executes one kernel natively and validates the result arrays.
func Run(k Kernel, cfg Config) (*Result, error) {
	if cfg.N <= 0 {
		return nil, errors.New("stream: N must be positive")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.N {
		workers = cfg.N
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 10
	}
	scalar := cfg.Scalar
	if scalar == 0 {
		scalar = 3.0
	}
	a := make([]float64, cfg.N)
	b := make([]float64, cfg.N)
	c := make([]float64, cfg.N)
	for i := range a {
		a[i], b[i], c[i] = 1, 2, 0
	}
	bytes := float64(k.BytesPerElement()) * float64(cfg.N)
	var bestT, sumT float64
	for t := 0; t < trials; t++ {
		el := runKernel(k, a, b, c, scalar, workers)
		s := el.Seconds()
		sumT += s
		if bestT == 0 || s < bestT {
			bestT = s
		}
	}
	res := &Result{
		Kernel:   k,
		N:        cfg.N,
		Workers:  workers,
		Trials:   trials,
		Best:     units.BytesPerSec(bytes / bestT),
		Avg:      units.BytesPerSec(bytes / (sumT / float64(trials))),
		BestTime: units.Seconds(bestT),
	}
	res.Validated = validate(k, a, b, c, scalar, trials)
	if !res.Validated {
		return res, fmt.Errorf("stream: %v validation failed", k)
	}
	return res, nil
}

// runKernel executes one trial across workers and returns the elapsed time.
func runKernel(k Kernel, a, b, c []float64, scalar float64, workers int) time.Duration {
	n := len(a)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	start := time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			switch k {
			case Copy:
				copy(c[lo:hi], a[lo:hi])
			case Scale:
				for i := lo; i < hi; i++ {
					b[i] = scalar * c[i]
				}
			case Add:
				for i := lo; i < hi; i++ {
					c[i] = a[i] + b[i]
				}
			case Triad:
				for i := lo; i < hi; i++ {
					a[i] = b[i] + scalar*c[i]
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return time.Since(start) //greenvet:allow detclock -- native benchmark: measures real execution on the host
}

// validate recomputes the expected values after `trials` repetitions of a
// single kernel from the known initial state and spot-checks the arrays.
func validate(k Kernel, a, b, c []float64, scalar float64, trials int) bool {
	// Initial: a=1, b=2, c=0. Each kernel is idempotent in its inputs
	// except for the first application, after which values are fixed points
	// of repetition (the kernels write a different array than they read).
	var wantA, wantB, wantC = 1.0, 2.0, 0.0
	switch k {
	case Copy:
		wantC = wantA
	case Scale:
		wantB = scalar * wantC
	case Add:
		wantC = wantA + wantB
	case Triad:
		wantA = wantB + scalar*wantC
	}
	// Tolerance-based verification, as in the reference stream.c: the
	// kernels are single flops, but the compiler may contract
	// b[j]+scalar*c[j] into an FMA while the expected-value computation
	// above rounds twice, so exact equality is architecture-dependent.
	const tol = 1e-13
	idx := []int{0, len(a) / 2, len(a) - 1}
	for _, i := range idx {
		if !stats.ApproxEqual(a[i], wantA, tol) ||
			!stats.ApproxEqual(b[i], wantB, tol) ||
			!stats.ApproxEqual(c[i], wantC, tol) {
			return false
		}
	}
	return true
}
