package ptrans

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
)

// ModelConfig drives the simulated-cluster PTRANS run.
type ModelConfig struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	// Scratch, when set, holds the distribution and the returned
	// profile, which then lasts until Scratch's next use (see
	// cluster.Scratch); nil allocates both.
	Scratch *cluster.Scratch
	// MemFill sizes the matrix from the active memory (two N×N matrices).
	// 0 means 0.3.
	MemFill float64
	// LocalFrac is the fraction of block exchanges that stay inside a node
	// (and so move at memory speed, not NIC speed) when several grid ranks
	// share a node. 0 means computed from the distribution.
	LocalFrac float64
}

// DefaultModelConfig returns the sweep configuration.
func DefaultModelConfig(spec *cluster.Spec, procs int) ModelConfig {
	return ModelConfig{Spec: spec, Procs: procs, Placement: cluster.Cyclic}
}

// ModelResult is the outcome of a simulated PTRANS run.
type ModelResult struct {
	N        int
	Procs    int
	Rate     units.BytesPerSec // global transpose rate, N²·8 / time
	Duration units.Seconds
	Profile  *cluster.LoadProfile
}

// Simulate costs the transpose: every off-diagonal element crosses between
// ranks; traffic leaving a node is bounded by its NIC, intra-node traffic
// by memory bandwidth. The makespan is set by the busiest node.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("ptrans: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	fill := cfg.MemFill
	if fill == 0 {
		fill = 0.3
	}
	if fill < 0 || fill > 0.9 {
		return nil, fmt.Errorf("ptrans: memory fill %v outside (0, 0.9]", fill)
	}
	if cfg.LocalFrac < 0 || cfg.LocalFrac > 1 {
		return nil, fmt.Errorf("ptrans: local fraction %v outside [0, 1]", cfg.LocalFrac)
	}
	dist, err := cfg.Scratch.Distribute(cfg.Spec, cfg.Procs, cfg.Placement)
	if err != nil {
		return nil, err
	}
	active := cluster.ActiveNodes(dist)

	// Matrix sized from the memory of the processes in use (A and B).
	memPerProc := cfg.Spec.Node.Memory.CapacityBytes / float64(cfg.Spec.Node.Cores())
	n := int(math.Sqrt(fill * memPerProc * float64(cfg.Procs) / (2 * 8)))
	if n < 64 {
		n = 64
	}
	totalBytes := float64(n) * float64(n) * 8

	// Fraction of traffic that stays on-node: each node holds procs/total
	// of the blocks; a random block pair is node-local with probability
	// Σ (share_i)².
	local := cfg.LocalFrac
	if local == 0 {
		var s float64
		for _, k := range dist {
			f := float64(k) / float64(cfg.Procs)
			s += f * f
		}
		local = s
	}
	remoteBytes := totalBytes * (1 - local)
	// Each node sends and receives its share of the remote traffic.
	perNodeRemote := remoteBytes / float64(active)
	nicTime := perNodeRemote / cfg.Spec.Interconnect.LinkBps
	// Local exchange and the final add run at memory speed on each node.
	perNodeLocal := (totalBytes*local + totalBytes) / float64(active)
	memTime := perNodeLocal / cfg.Spec.Node.Memory.BandwidthBps
	duration := nicTime + memTime
	if cfg.Procs == 1 {
		duration = 2 * totalBytes / cfg.Spec.Node.Memory.BandwidthBps
	}

	rate := totalBytes / duration
	netFrac := 0.0
	if duration > 0 {
		netFrac = nicTime / duration
	}
	profile := cfg.Scratch.FromDistribution(units.Seconds(duration), cfg.Spec, dist,
		func(procs, cores int) cluster.Util {
			share := float64(procs) / float64(cores)
			return cluster.Util{
				CPU: 0.25 * share,
				Mem: math.Min(1, 1-netFrac),
				Net: math.Min(1, netFrac*share*4),
			}
		})
	return &ModelResult{
		N:        n,
		Procs:    cfg.Procs,
		Rate:     units.BytesPerSec(rate),
		Duration: units.Seconds(duration),
		Profile:  profile,
	}, nil
}
