// Package dgemm implements the HPC Challenge DGEMM benchmark: dense
// double-precision matrix-matrix multiplication, the pure compute-rate
// probe of the suite. Unlike HPL it has no pivoting, no communication and
// no solver around it — it isolates the floating-point pipeline, which is
// why HPCC reports it separately from HPL.
//
// Native mode runs the blas package's blocked kernel across parallel
// workers (row-panel decomposition); simulated mode is the HPL compute
// model without the communication terms.
package dgemm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config describes one native run.
type Config struct {
	// N is the (square) matrix order.
	N int
	// Workers is the number of parallel row panels; 0 means GOMAXPROCS.
	Workers int
	// Trials repeats the multiply; best rate reported. 0 means 3.
	Trials int
	Seed   uint64
}

// Result is the outcome of a native run.
type Result struct {
	N        int
	Workers  int
	GFLOPS   float64
	BestTime units.Seconds
	MaxError float64 // against a sampled dot-product check
	Passed   bool
}

// Run executes C = A·B natively and spot-verifies results against directly
// computed dot products.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 || cfg.N > 1<<14 {
		return nil, errors.New("dgemm: N must be in [1, 16384]")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 1 {
			workers = 1
		}
	}
	if workers > cfg.N {
		workers = cfg.N
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 3
	}
	n := cfg.N
	rng := sim.NewRNG(cfg.Seed + 0xD6E88)
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormAt(0, 1)
		b[i] = rng.NormAt(0, 1)
	}
	chunk := (n + workers - 1) / workers
	var best float64
	for t := 0; t < trials; t++ {
		start := time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		var wg sync.WaitGroup
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
				blas.Gemm(hi-lo, n, n, 1, a[lo*n:], n, b, n, 0, c[lo*n:], n)
			}(lo, hi)
		}
		wg.Wait()
		el := time.Since(start).Seconds() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		if rate := blas.GemmFlops(n, n, n) / el / 1e9; rate > best {
			best = rate
		}
	}
	// Spot check a handful of entries against direct dot products.
	maxErr := 0.0
	checks := [][2]int{{0, 0}, {n / 2, n / 3}, {n - 1, n - 1}, {n / 4, 0}, {0, n - 1}}
	col := make([]float64, n)
	for _, ck := range checks {
		i, j := ck[0], ck[1]
		for k := 0; k < n; k++ {
			col[k] = b[k*n+j]
		}
		want := blas.Dot(a[i*n:i*n+n], col)
		if d := math.Abs(c[i*n+j] - want); d > maxErr {
			maxErr = d
		}
	}
	tol := 1e-10 * float64(n)
	res := &Result{
		N:        n,
		Workers:  workers,
		GFLOPS:   best,
		BestTime: units.Seconds(blas.GemmFlops(n, n, n) / (best * 1e9)),
		MaxError: maxErr,
		Passed:   maxErr <= tol,
	}
	if !res.Passed {
		return res, fmt.Errorf("dgemm: verification failed: max error %v", maxErr)
	}
	return res, nil
}

// ModelConfig drives the simulated-cluster DGEMM run.
type ModelConfig struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	// Scratch, when set, holds the distribution and the returned
	// profile, which then lasts until Scratch's next use (see
	// cluster.Scratch); nil allocates both.
	Scratch *cluster.Scratch
	// Eff is the sustained fraction of peak (tuned BLAS: 0.85-0.95; above
	// HPL because there is no panel factorisation). 0 means 0.9.
	Eff float64
	// MemFill sizes the per-process matrices. 0 means 0.3.
	MemFill float64
}

// DefaultModelConfig returns the sweep configuration.
func DefaultModelConfig(spec *cluster.Spec, procs int) ModelConfig {
	return ModelConfig{Spec: spec, Procs: procs, Placement: cluster.Cyclic}
}

// ModelResult is the outcome of a simulated run.
type ModelResult struct {
	N        int // per-process matrix order
	Procs    int
	Perf     units.FLOPS
	Duration units.Seconds
	Profile  *cluster.LoadProfile
}

// Simulate evaluates the embarrassingly-parallel model: every process
// multiplies its own matrices at Eff × peak (bandwidth-capped like the
// HPL trailing update); no communication at all.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("dgemm: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	eff := cfg.Eff
	if eff == 0 {
		eff = 0.9
	}
	if eff <= 0 || eff > 1 {
		return nil, fmt.Errorf("dgemm: efficiency %v outside (0, 1]", eff)
	}
	fill := cfg.MemFill
	if fill == 0 {
		fill = 0.3
	}
	if fill < 0 || fill > 0.9 {
		return nil, fmt.Errorf("dgemm: memory fill %v outside (0, 0.9]", fill)
	}
	dist, err := cfg.Scratch.Distribute(cfg.Spec, cfg.Procs, cfg.Placement)
	if err != nil {
		return nil, err
	}
	memPerProc := cfg.Spec.Node.Memory.CapacityBytes / float64(cfg.Spec.Node.Cores())
	n := int(math.Sqrt(fill * memPerProc / (3 * 8))) // A, B, C
	if n < 64 {
		n = 64
	}
	corePeak := cfg.Spec.Node.CPU.ClockHz * cfg.Spec.Node.CPU.FlopsPerCycle
	maxOnNode := 0
	for _, d := range dist {
		if d > maxOnNode {
			maxOnNode = d
		}
	}
	rate := corePeak * eff
	bytesPerFlop := 14.0 / 128 // blocked kernel traffic, NB=128 equivalent
	if maxOnNode > 0 {
		if bwRate := cfg.Spec.Node.Memory.BandwidthBps / float64(maxOnNode) / bytesPerFlop; bwRate < rate {
			rate = bwRate
		}
	}
	flopsPerProc := blas.GemmFlops(n, n, n)
	duration := flopsPerProc / rate
	perf := units.FLOPS(float64(cfg.Procs) * rate)
	profile := cfg.Scratch.FromDistribution(units.Seconds(duration), cfg.Spec, dist,
		func(procs, cores int) cluster.Util {
			share := float64(procs) / float64(cores)
			memU := float64(procs) * rate * bytesPerFlop / cfg.Spec.Node.Memory.BandwidthBps
			return cluster.Util{CPU: share, Mem: math.Min(1, memU)}
		})
	return &ModelResult{
		N:        n,
		Procs:    cfg.Procs,
		Perf:     perf,
		Duration: units.Seconds(duration),
		Profile:  profile,
	}, nil
}
