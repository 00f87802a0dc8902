// Package beff implements the HPC Challenge effective-bandwidth
// microbenchmarks: point-to-point latency (ping-pong round trips with
// empty payloads) and bandwidth (large-message ping-pong), plus a
// natural-ring pattern. On real machines b_eff characterises the
// interconnect; run natively here it characterises the mpirt runtime the
// HPL and PTRANS benchmarks are built on, and the simulated mode reads the
// fabric numbers straight off a machine spec.
package beff

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpirt"
	"repro/internal/units"
)

// Config describes one native run.
type Config struct {
	// Ranks is the world size (≥ 2 for the pairwise tests).
	Ranks int
	// PingPongIters is the round-trip count for the latency test. 0 means 200.
	PingPongIters int
	// MessageWords is the payload length of the bandwidth test in float64
	// words. 0 means 1<<17 (1 MiB).
	MessageWords int
}

// Result is the outcome of a native run.
type Result struct {
	Ranks         int
	Latency       units.Seconds     // one-way small-message latency
	Bandwidth     units.BytesPerSec // pairwise large-message bandwidth
	RingBandwidth units.BytesPerSec // aggregate natural-ring rate
}

// Run executes the microbenchmarks on the in-process runtime.
func Run(cfg Config) (*Result, error) {
	if cfg.Ranks < 2 {
		return nil, errors.New("beff: need at least 2 ranks")
	}
	iters := cfg.PingPongIters
	if iters <= 0 {
		iters = 200
	}
	words := cfg.MessageWords
	if words <= 0 {
		words = 1 << 17
	}
	res := &Result{Ranks: cfg.Ranks}
	var pingPong, bandwidth, ring time.Duration
	err := mpirt.Run(cfg.Ranks, func(c *mpirt.Comm) error {
		// 1. Latency: rank 0 <-> rank 1 empty-message round trips.
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		switch c.Rank() {
		case 0:
			for i := 0; i < iters; i++ {
				if err := c.Send(1, 10, nil); err != nil {
					return err
				}
				if _, _, _, err := c.Recv(1, 11); err != nil {
					return err
				}
			}
			pingPong = time.Since(start) //greenvet:allow detclock -- native benchmark: measures real execution on the host
		case 1:
			for i := 0; i < iters; i++ {
				if _, _, _, err := c.Recv(0, 10); err != nil {
					return err
				}
				if err := c.Send(0, 11, nil); err != nil {
					return err
				}
			}
		}
		// 2. Bandwidth: large-message round trips between ranks 0 and 1.
		if err := c.Barrier(); err != nil {
			return err
		}
		payload := make([]float64, words)
		start = time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		const bwIters = 10
		switch c.Rank() {
		case 0:
			for i := 0; i < bwIters; i++ {
				if err := c.Send(1, 20, payload); err != nil {
					return err
				}
				if _, _, _, err := c.Recv(1, 21); err != nil {
					return err
				}
			}
			bandwidth = time.Since(start) //greenvet:allow detclock -- native benchmark: measures real execution on the host
		case 1:
			for i := 0; i < bwIters; i++ {
				if _, _, _, err := c.Recv(0, 20); err != nil {
					return err
				}
				if err := c.Send(0, 21, payload); err != nil {
					return err
				}
			}
		}
		// 3. Natural ring: every rank sends to (rank+1) mod n concurrently.
		if err := c.Barrier(); err != nil {
			return err
		}
		start = time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		const ringIters = 10
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		for i := 0; i < ringIters; i++ {
			if err := c.Send(next, 30, payload); err != nil {
				return err
			}
			if _, _, _, err := c.Recv(prev, 30); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			ring = time.Since(start) //greenvet:allow detclock -- native benchmark: measures real execution on the host
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if pingPong <= 0 || bandwidth <= 0 || ring <= 0 {
		return nil, fmt.Errorf("beff: degenerate timings %v %v %v", pingPong, bandwidth, ring)
	}
	msgBytes := float64(words) * 8
	res.Latency = units.Seconds(pingPong.Seconds() / float64(iters) / 2)
	res.Bandwidth = units.BytesPerSec(2 * msgBytes * 10 / bandwidth.Seconds())
	res.RingBandwidth = units.BytesPerSec(float64(cfg.Ranks) * msgBytes * 10 / ring.Seconds())
	return res, nil
}

// SpecResult reads the fabric characteristics a real b_eff run would
// measure straight from a machine spec, for use in simulated suites.
type SpecResult struct {
	Latency       units.Seconds
	Bandwidth     units.BytesPerSec
	RingBandwidth units.BytesPerSec
}

// FromSpec derives the effective fabric numbers from a cluster spec: the
// per-link figures with a protocol-efficiency haircut, and a ring that
// drives every node's link simultaneously.
func FromSpec(spec *cluster.Spec) (SpecResult, error) {
	if spec == nil {
		return SpecResult{}, errors.New("beff: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return SpecResult{}, err
	}
	const protoEff = 0.85
	return SpecResult{
		Latency:       units.Seconds(spec.Interconnect.LatencySec),
		Bandwidth:     units.BytesPerSec(spec.Interconnect.LinkBps * protoEff),
		RingBandwidth: units.BytesPerSec(spec.Interconnect.LinkBps * protoEff * float64(spec.Nodes)),
	}, nil
}
