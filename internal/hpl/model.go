package hpl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
)

// ModelConfig drives the simulated-cluster HPL run: the analytic performance
// model of the same right-looking LU used by the native path, evaluated
// against a machine spec instead of the host CPU. It exists because the
// paper's sweep (8…128 processes on the Fire cluster, 1024 on SystemG)
// cannot run natively here; see DESIGN.md §2.
type ModelConfig struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	// Scratch, when set, holds the distribution and the returned
	// profile, which then lasts until Scratch's next use (see
	// cluster.Scratch); nil allocates both.
	Scratch *cluster.Scratch
	// MemFill is the fraction of the active nodes' memory used for the
	// matrix. Tuning practice goes to ~80%; sweep runs use less so the
	// three suite benchmarks have comparable durations.
	MemFill float64
	// NB is the block size (only mildly influential in the model).
	NB int
	// GemmEff is the fraction of peak a core sustains in the trailing
	// update (dgemm efficiency). Typical tuned BLAS: 0.80-0.92.
	GemmEff float64
	// Overlap is the fraction of communication hidden behind computation
	// by HPL's lookahead pipelining, in [0, 1).
	Overlap float64
}

// ModelResult is the outcome of a simulated HPL run.
type ModelResult struct {
	N           int
	Procs       int
	P, Q        int
	Perf        units.FLOPS   // delivered rate
	Duration    units.Seconds // makespan
	ComputeTime units.Seconds
	CommTime    units.Seconds
	Efficiency  float64 // Perf / (procs × per-core peak)
	Profile     *cluster.LoadProfile
}

// DefaultModelConfig returns the configuration used by the paper
// reproduction sweeps.
func DefaultModelConfig(spec *cluster.Spec, procs int) ModelConfig {
	return ModelConfig{
		Spec:      spec,
		Procs:     procs,
		Placement: cluster.Cyclic,
		MemFill:   0.45,
		NB:        128,
		GemmEff:   0.86,
		Overlap:   0.6,
	}
}

// Simulate evaluates the analytic model and returns performance plus the
// load profile the power model integrates.
//
// The model mirrors the real algorithm's cost structure:
//
//	T_compute = (2/3·N³) / (procs · core_peak · GemmEff · mem_penalty)
//	T_comm    = panel broadcasts + U broadcasts + pivot exchanges, costed
//	            against the interconnect's bandwidth and latency with
//	            log₂-tree collectives.
//
// N is sized from the memory of the active nodes (MemFill), exactly as an
// operator would size a real run, so N grows as √procs across the sweep.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("hpl: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.MemFill <= 0 || cfg.MemFill > 0.95 {
		return nil, fmt.Errorf("hpl: memory fill %v outside (0, 0.95]", cfg.MemFill)
	}
	if cfg.GemmEff <= 0 || cfg.GemmEff > 1 {
		return nil, fmt.Errorf("hpl: gemm efficiency %v outside (0, 1]", cfg.GemmEff)
	}
	if cfg.NB <= 0 {
		return nil, errors.New("hpl: NB must be positive")
	}
	if cfg.Overlap < 0 || cfg.Overlap >= 1 {
		return nil, fmt.Errorf("hpl: overlap %v outside [0, 1)", cfg.Overlap)
	}
	spec := cfg.Spec
	dist, err := cfg.Scratch.Distribute(spec, cfg.Procs, cfg.Placement)
	if err != nil {
		return nil, err
	}
	P, Q := Grid(cfg.Procs)

	// Size the matrix from the memory of the cores actually used: each
	// process gets its node's memory divided by the node's core count.
	memPerProc := spec.Node.Memory.CapacityBytes / float64(spec.Node.Cores())
	totalMem := memPerProc * float64(cfg.Procs)
	n := int(math.Sqrt(cfg.MemFill * totalMem / 8))
	if n < cfg.NB {
		n = cfg.NB
	}
	nf := float64(n)

	corePeak := spec.Node.CPU.ClockHz * spec.Node.CPU.FlopsPerCycle

	// Roofline memory term: a blocked dgemm with panel width NB streams
	// about 14/NB bytes per flop; a core's sustained rate is the lesser of
	// its compute ceiling and what its share of the node's memory bandwidth
	// feeds. Evaluated on the most-loaded node.
	maxProcsOnNode := 0
	for _, d := range dist {
		if d > maxProcsOnNode {
			maxProcsOnNode = d
		}
	}
	bytesPerFlop := 14.0 / float64(cfg.NB)
	rateEff := corePeak * cfg.GemmEff
	bwPerProc := spec.Node.Memory.BandwidthBps / float64(maxProcsOnNode)
	if bwRate := bwPerProc / bytesPerFlop; bwRate < rateEff {
		rateEff = bwRate
	}
	memPenalty := rateEff / (corePeak * cfg.GemmEff)

	flops := 2.0 / 3.0 * nf * nf * nf
	computeRate := float64(cfg.Procs) * rateEff
	tCompute := flops / computeRate

	// Communication: per panel (N/NB panels),
	//   panel broadcast along a process row: (N/P·NB) doubles, log₂Q stages
	//   U broadcast down a process column:  (N/Q·NB) doubles, log₂P stages
	//   pivot search + row swaps: latency-bound, ~NB·log₂P exchanges.
	// Costed against the per-node NIC bandwidth shared by the processes on
	// that node.
	nPanels := nf / float64(cfg.NB)
	linkBps := spec.Interconnect.LinkBps
	lat := spec.Interconnect.LatencySec
	logQ := math.Log2(float64(Q) + 1)
	logP := math.Log2(float64(P) + 1)
	// Average trailing-matrix extent is N/2.
	panelBytes := (nf / 2) / float64(P) * float64(cfg.NB) * 8
	uBytes := (nf / 2) / float64(Q) * float64(cfg.NB) * 8
	// Several processes share one NIC.
	procsPerNIC := float64(maxProcsOnNode)
	if procsPerNIC < 1 {
		procsPerNIC = 1
	}
	effLink := linkBps / procsPerNIC
	tComm := nPanels * (logQ*(panelBytes/effLink+lat) +
		logP*(uBytes/effLink+lat) +
		float64(cfg.NB)*logP*2*lat)
	// HPL's lookahead pipelining hides part of the broadcast traffic
	// behind the trailing update.
	tComm *= 1 - cfg.Overlap
	if cfg.Procs == 1 {
		tComm = 0
	}

	tTotal := tCompute + tComm
	perf := units.FLOPS(flops / tTotal)
	eff := float64(perf) / (float64(cfg.Procs) * corePeak)

	// Load profile: one phase. CPU utilisation of a node = (procs on node /
	// cores) × compute fraction; network utilisation from the comm traffic;
	// memory utilisation from the dgemm streaming demand.
	computeFrac := tCompute / tTotal
	commFrac := tComm / tTotal
	profile := cfg.Scratch.FromDistribution(units.Seconds(tTotal), spec, dist,
		func(procs, cores int) cluster.Util {
			share := float64(procs) / float64(cores)
			memU := float64(procs) * corePeak * cfg.GemmEff * memPenalty * bytesPerFlop /
				spec.Node.Memory.BandwidthBps
			return cluster.Util{
				CPU: share * computeFrac,
				Mem: memU * computeFrac,
				Net: math.Min(1, commFrac*share),
			}
		})

	return &ModelResult{
		N:           n,
		Procs:       cfg.Procs,
		P:           P,
		Q:           Q,
		Perf:        perf,
		Duration:    units.Seconds(tTotal),
		ComputeTime: units.Seconds(tCompute),
		CommTime:    units.Seconds(tComm),
		Efficiency:  eff,
		Profile:     profile,
	}, nil
}
