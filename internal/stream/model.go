package stream

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
)

// ModelConfig drives the simulated-cluster STREAM run.
type ModelConfig struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	Kernel    Kernel
	// Scratch, when set, holds the distribution and the returned
	// profile, which then lasts until Scratch's next use (see
	// cluster.Scratch); nil allocates both.
	Scratch *cluster.Scratch
	// SatProcs is the number of processes per node needed to saturate the
	// node's memory bandwidth (memory controllers saturate long before the
	// core count; 3-5 on commodity parts).
	SatProcs int
	// Contention is the fractional bandwidth loss per extra process beyond
	// half the node's cores, normalised by the core count: queue and
	// prefetcher interference make fully-packed STREAM runs slower than
	// half-packed ones on real machines.
	Contention float64
	// ArrayBytesPerProc is the per-process working set (3 arrays); sized
	// like the reference benchmark (well beyond cache). 0 means 512 MiB.
	ArrayBytesPerProc float64
	// Trials is the repetition count contributing to the run's duration.
	// 0 means 3800 (cluster STREAM runs repeat for minutes).
	Trials int
}

// DefaultModelConfig returns the configuration used by the paper
// reproduction sweeps.
func DefaultModelConfig(spec *cluster.Spec, procs int) ModelConfig {
	return ModelConfig{
		Spec:       spec,
		Procs:      procs,
		Placement:  cluster.Cyclic,
		Kernel:     Triad,
		SatProcs:   4,
		Contention: 0.45,
		Trials:     3800,
	}
}

// ModelResult is the outcome of a simulated STREAM run.
type ModelResult struct {
	Procs     int
	Kernel    Kernel
	Aggregate units.BytesPerSec // cluster-wide sustained rate
	Duration  units.Seconds
	Profile   *cluster.LoadProfile
}

// nodeBandwidth returns the sustained bandwidth of one node running k
// STREAM processes: linear ramp to saturation at SatProcs, then a mild
// decline from contention as the node fills.
func nodeBandwidth(spec *cluster.Spec, cfg ModelConfig, k int) float64 {
	if k <= 0 {
		return 0
	}
	sat := spec.Node.Memory.BandwidthBps
	ramp := math.Min(1, float64(k)/float64(cfg.SatProcs))
	cores := spec.Node.Cores()
	half := cores / 2
	penalty := 1.0
	if k > half && cores > half {
		penalty = 1 - cfg.Contention*float64(k-half)/float64(cores)
	}
	if penalty < 0.1 {
		penalty = 0.1
	}
	return sat * ramp * penalty
}

// Simulate evaluates the model and returns aggregate bandwidth plus the
// load profile for the power pipeline.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("stream: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.SatProcs <= 0 {
		return nil, errors.New("stream: SatProcs must be positive")
	}
	if cfg.Contention < 0 || cfg.Contention > 1 {
		return nil, fmt.Errorf("stream: contention %v outside [0, 1]", cfg.Contention)
	}
	dist, err := cfg.Scratch.Distribute(cfg.Spec, cfg.Procs, cfg.Placement)
	if err != nil {
		return nil, err
	}
	arrBytes := cfg.ArrayBytesPerProc
	if arrBytes == 0 {
		arrBytes = 512 << 20
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 3800
	}

	// Duration: every node processes its processes' working sets at its
	// sustained rate; the slowest node sets the makespan. Traffic per
	// process per trial = kernel traffic across the array.
	perProcTraffic := arrBytes / 3 * float64(cfg.Kernel.BytesPerElement()) / 8
	var agg, makespan float64
	for _, k := range dist {
		if k == 0 {
			continue
		}
		bw := nodeBandwidth(cfg.Spec, cfg, k)
		agg += bw
		if t := float64(trials) * float64(k) * perProcTraffic / bw; t > makespan {
			makespan = t
		}
	}
	if agg <= 0 {
		return nil, errors.New("stream: zero aggregate bandwidth")
	}

	// Load profile: memory utilisation = achieved/sustainable bandwidth;
	// CPU utilisation is modest — STREAM cores spend most cycles stalled on
	// memory, drawing well below dgemm power (~45% of active-core power on
	// measured systems).
	const streamCPUFactor = 0.45
	profile := cfg.Scratch.FromDistribution(units.Seconds(makespan), cfg.Spec, dist,
		func(procs, cores int) cluster.Util {
			bw := nodeBandwidth(cfg.Spec, cfg, procs)
			return cluster.Util{
				CPU: streamCPUFactor * float64(procs) / float64(cores),
				Mem: bw / cfg.Spec.Node.Memory.BandwidthBps,
			}
		})
	return &ModelResult{
		Procs:     cfg.Procs,
		Kernel:    cfg.Kernel,
		Aggregate: units.BytesPerSec(agg),
		Duration:  units.Seconds(makespan),
		Profile:   profile,
	}, nil
}
