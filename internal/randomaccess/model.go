package randomaccess

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
)

// ModelConfig drives the simulated-cluster GUPS run.
type ModelConfig struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	// Scratch, when set, holds the distribution and the returned
	// profile, which then lasts until Scratch's next use (see
	// cluster.Scratch); nil allocates both.
	Scratch *cluster.Scratch
	// MemLatency is the average DRAM random-access latency. 0 means 90 ns.
	MemLatency float64
	// MLP is the memory-level parallelism one core sustains (outstanding
	// misses). 0 means 6.
	MLP float64
	// UpdatesPerWord follows HPCC's 4×. 0 means 4.
	UpdatesPerWord int
	// TableFill is the fraction of active memory the table occupies.
	// 0 means 0.5 (HPCC default).
	TableFill float64
}

// DefaultModelConfig returns the sweep configuration.
func DefaultModelConfig(spec *cluster.Spec, procs int) ModelConfig {
	return ModelConfig{Spec: spec, Procs: procs, Placement: cluster.Cyclic}
}

// ModelResult is the outcome of a simulated GUPS run.
type ModelResult struct {
	Procs    int
	GUPS     float64
	Duration units.Seconds
	Profile  *cluster.LoadProfile
}

// Simulate evaluates the latency-roofline model: each process retires
// MLP/latency updates per second, capped collectively by the node's
// bandwidth at one cache line (64 B) per update.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("randomaccess: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	lat := cfg.MemLatency
	if lat == 0 {
		lat = 90e-9
	}
	if lat <= 0 {
		return nil, errors.New("randomaccess: non-positive latency")
	}
	mlp := cfg.MLP
	if mlp == 0 {
		mlp = 6
	}
	if mlp <= 0 {
		return nil, errors.New("randomaccess: non-positive MLP")
	}
	upw := cfg.UpdatesPerWord
	if upw <= 0 {
		upw = 4
	}
	fill := cfg.TableFill
	if fill == 0 {
		fill = 0.5
	}
	if fill < 0 || fill > 0.9 {
		return nil, fmt.Errorf("randomaccess: table fill %v outside (0, 0.9]", fill)
	}
	dist, err := cfg.Scratch.Distribute(cfg.Spec, cfg.Procs, cfg.Placement)
	if err != nil {
		return nil, err
	}
	perProcRate := mlp / lat // updates/s one core can retire
	var total float64
	for _, k := range dist {
		nodeRate := float64(k) * perProcRate
		// One update touches a cache line: bandwidth ceiling.
		if cap := cfg.Spec.Node.Memory.BandwidthBps / 64; nodeRate > cap {
			nodeRate = cap
		}
		total += nodeRate
	}
	if total <= 0 {
		return nil, errors.New("randomaccess: zero update rate")
	}
	// Table sized from active memory; updates = 4 × words.
	memPerProc := cfg.Spec.Node.Memory.CapacityBytes / float64(cfg.Spec.Node.Cores())
	words := fill * memPerProc * float64(cfg.Procs) / 8
	updates := float64(upw) * words
	duration := updates / total

	profile := cfg.Scratch.FromDistribution(units.Seconds(duration), cfg.Spec, dist,
		func(procs, cores int) cluster.Util {
			k := float64(procs)
			nodeRate := k * perProcRate
			cap := cfg.Spec.Node.Memory.BandwidthBps / 64
			if nodeRate > cap {
				nodeRate = cap
			}
			return cluster.Util{
				CPU: 0.35 * k / float64(cores), // cores mostly stalled on misses
				Mem: math.Min(1, nodeRate*64/cfg.Spec.Node.Memory.BandwidthBps),
			}
		})
	return &ModelResult{
		Procs:    cfg.Procs,
		GUPS:     total / 1e9,
		Duration: units.Seconds(duration),
		Profile:  profile,
	}, nil
}
