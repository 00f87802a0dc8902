package beff

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/units"
)

// ModelConfig drives the simulated-cluster b_eff run: the natural-ring
// exchange pattern of the native benchmark, costed against a machine
// spec's fabric numbers (FromSpec) instead of the in-process runtime.
type ModelConfig struct {
	Spec      *cluster.Spec
	Procs     int
	Placement cluster.Placement
	// Scratch, when set, holds the distribution and the returned
	// profile, which then lasts until Scratch's next use (see
	// cluster.Scratch); nil allocates both.
	Scratch *cluster.Scratch
	// MessageBytes is the payload each rank passes to its ring successor
	// per round. 0 means 4 MiB.
	MessageBytes float64
	// Rounds is the ring-exchange count; it stretches the run to a
	// meterable length the way the native benchmark's iteration counts
	// do. 0 means 2000.
	Rounds int
}

// DefaultModelConfig returns the sweep configuration.
func DefaultModelConfig(spec *cluster.Spec, procs int) ModelConfig {
	return ModelConfig{Spec: spec, Procs: procs, Placement: cluster.Cyclic}
}

// ModelResult is the outcome of a simulated b_eff run.
type ModelResult struct {
	Procs     int
	Latency   units.Seconds     // one-way small-message latency (from the spec)
	Bandwidth units.BytesPerSec // pairwise large-message bandwidth (from the spec)
	RingRate  units.BytesPerSec // aggregate natural-ring rate
	Duration  units.Seconds
	Profile   *cluster.LoadProfile
}

// crossing returns how many ring edges leave node j of the distribution:
// rank r's message crosses iff its successor (r+1) mod procs lives on
// another node. Block placement fills nodes contiguously, so only a
// node's last rank sends off the node, and not even that one when the
// node holds every rank. Cyclic placement deals rank r to node r mod
// nodes, so on two or more nodes every edge crosses except the wrap from
// rank procs-1 back to rank 0 when both sit on node 0.
func crossing(dist []int, j, procs int, pl cluster.Placement) int {
	k := dist[j]
	switch {
	case k == 0 || len(dist) == 1:
		return 0
	case pl == cluster.Cyclic:
		if j == 0 && (procs-1)%len(dist) == 0 {
			return k - 1
		}
		return k
	case k == procs:
		return 0
	default:
		return 1
	}
}

// Simulate costs the natural-ring exchange: per round every rank sends
// MessageBytes to its successor. Messages crossing nodes share the
// sender's NIC at the protocol-efficiency haircut of FromSpec; messages
// between ranks of one node move at memory speed. The round time is set
// by the busiest path, plus one fabric latency of pipeline startup, and
// the whole run is Rounds such exchanges — which makes the benchmark a
// pure interconnect probe the way HPCC's b_eff is.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("beff: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("beff: process count %d must be at least 1", cfg.Procs)
	}
	msg := cfg.MessageBytes
	if msg == 0 {
		msg = 4 << 20
	}
	if msg < 0 {
		return nil, fmt.Errorf("beff: negative message size %v", msg)
	}
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 2000
	}
	if rounds < 0 {
		return nil, fmt.Errorf("beff: negative round count %d", rounds)
	}
	fabric, err := FromSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	dist, err := cfg.Scratch.Distribute(cfg.Spec, cfg.Procs, cfg.Placement)
	if err != nil {
		return nil, err
	}

	// Round time: the busiest NIC against the fabric's effective
	// bandwidth, the busiest memory system for on-node hops, plus one
	// latency of startup.
	var nicTime, memTime float64
	totalCross := 0
	for j, k := range dist {
		if k == 0 {
			continue
		}
		cross := crossing(dist, j, cfg.Procs, cfg.Placement)
		totalCross += cross
		nicTime = math.Max(nicTime, float64(cross)*msg/float64(fabric.Bandwidth))
		local := k - cross
		memTime = math.Max(memTime, float64(local)*msg/cfg.Spec.Node.Memory.BandwidthBps)
	}
	roundTime := float64(fabric.Latency) + math.Max(nicTime, memTime)
	if roundTime <= 0 {
		return nil, errors.New("beff: degenerate round time")
	}
	duration := float64(rounds) * roundTime
	ringRate := float64(cfg.Procs) * msg / roundTime

	// The fraction of traffic leaving each node drives the power model's
	// network term; the cores mostly wait on transfers.
	crossFrac := float64(totalCross) / float64(cfg.Procs)
	profile := cfg.Scratch.FromDistribution(units.Seconds(duration), cfg.Spec, dist,
		func(procs, cores int) cluster.Util {
			nodeBytes := float64(procs) * crossFrac * msg / roundTime
			return cluster.Util{
				CPU: 0.1 * float64(procs) / float64(cores),
				Mem: math.Min(1, float64(procs)*msg/roundTime/cfg.Spec.Node.Memory.BandwidthBps),
				Net: math.Min(1, nodeBytes/cfg.Spec.Interconnect.LinkBps),
			}
		})
	return &ModelResult{
		Procs:     cfg.Procs,
		Latency:   fabric.Latency,
		Bandwidth: fabric.Bandwidth,
		RingRate:  units.BytesPerSec(ringRate),
		Duration:  units.Seconds(duration),
		Profile:   profile,
	}, nil
}
