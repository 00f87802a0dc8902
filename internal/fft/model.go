package fft

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
)

// ModelConfig drives the simulated-cluster FFT benchmark (the global,
// all-to-all variant HPCC calls MPIFFT).
type ModelConfig struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	// Scratch, when set, holds the distribution and the returned
	// profile, which then lasts until Scratch's next use (see
	// cluster.Scratch); nil allocates both.
	Scratch *cluster.Scratch
	// MemFill sizes the distributed vector from the active memory; HPCC
	// uses a modest fraction. 0 means 0.2.
	MemFill float64
	// ComputeEff is the fraction of peak a core sustains on FFT butterflies
	// (non-contiguous access keeps this well under dgemm's). 0 means 0.22.
	ComputeEff float64
}

// DefaultModelConfig returns the sweep configuration.
func DefaultModelConfig(spec *cluster.Spec, procs int) ModelConfig {
	return ModelConfig{Spec: spec, Procs: procs, Placement: cluster.Cyclic}
}

// ModelResult is the outcome of a simulated FFT run.
type ModelResult struct {
	N        int // global vector length (power of two)
	Procs    int
	Perf     units.FLOPS
	Duration units.Seconds
	Profile  *cluster.LoadProfile
}

// Simulate evaluates the model: compute time from the 5·N·log₂N count at
// FFT efficiency, plus the benchmark's defining communication phase — a
// global transpose (all-to-all) moving the entire vector across the
// interconnect, which is why MPIFFT stresses bisection bandwidth.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("fft: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	fill := cfg.MemFill
	if fill == 0 {
		fill = 0.2
	}
	if fill < 0 || fill > 0.9 {
		return nil, fmt.Errorf("fft: memory fill %v outside (0, 0.9]", fill)
	}
	eff := cfg.ComputeEff
	if eff == 0 {
		eff = 0.22
	}
	if eff <= 0 || eff > 1 {
		return nil, fmt.Errorf("fft: compute efficiency %v outside (0, 1]", eff)
	}
	dist, err := cfg.Scratch.Distribute(cfg.Spec, cfg.Procs, cfg.Placement)
	if err != nil {
		return nil, err
	}
	// Vector sized to a power of two within the memory budget (16 bytes
	// per complex element).
	memPerProc := cfg.Spec.Node.Memory.CapacityBytes / float64(cfg.Spec.Node.Cores())
	budget := fill * memPerProc * float64(cfg.Procs) / 16
	logN := int(math.Floor(math.Log2(budget)))
	if logN < 10 {
		logN = 10
	}
	n := 1 << logN
	flops := FlopCount(n)

	corePeak := cfg.Spec.Node.CPU.ClockHz * cfg.Spec.Node.CPU.FlopsPerCycle
	// Butterflies are memory-bound: cap per-core rate by the node
	// bandwidth share as in the HPL model, with FFT's ~1 byte/flop.
	maxOnNode := 0
	for _, d := range dist {
		if d > maxOnNode {
			maxOnNode = d
		}
	}
	rate := corePeak * eff
	if maxOnNode > 0 {
		bwRate := cfg.Spec.Node.Memory.BandwidthBps / float64(maxOnNode) / 1.0
		if bwRate < rate {
			rate = bwRate
		}
	}
	tCompute := flops / (float64(cfg.Procs) * rate)

	// Three global transposes (HPCC's 1D decomposition), each moving the
	// full 16·N bytes across the fabric; per-node NIC shared by its procs.
	tComm := 0.0
	if cfg.Procs > 1 {
		active := cluster.ActiveNodes(dist)
		perNodeBytes := 3 * 16 * float64(n) / float64(active)
		link := cfg.Spec.Interconnect.LinkBps
		tComm = perNodeBytes / link
	}

	total := tCompute + tComm
	perf := units.FLOPS(flops / total)
	computeFrac := tCompute / total
	profile := cfg.Scratch.FromDistribution(units.Seconds(total), cfg.Spec, dist,
		func(procs, cores int) cluster.Util {
			share := float64(procs) / float64(cores)
			return cluster.Util{
				CPU: 0.6 * share * computeFrac, // stalled on memory much of the time
				Mem: math.Min(1, float64(procs)*rate/cfg.Spec.Node.Memory.BandwidthBps),
				Net: math.Min(1, (1-computeFrac)*share),
			}
		})
	return &ModelResult{
		N:        n,
		Procs:    cfg.Procs,
		Perf:     perf,
		Duration: units.Seconds(total),
		Profile:  profile,
	}, nil
}
