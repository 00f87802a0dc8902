// Package cluster defines the machine model: parameterised hardware
// specifications for HPC clusters (nodes, sockets, cores, memory, disks,
// NICs, interconnect, shared storage) plus process-placement and
// load-profile types consumed by the power model.
//
// Because the paper's experiments require physical clusters (the 8-node
// "Fire" system under test and the 128-node slice of "SystemG" used as the
// reference) and a wall-plug power meter, this package provides calibrated
// digital twins of both machines. TGI itself consumes only per-benchmark
// (performance, power, time, energy) tuples, so a machine model that yields
// realistic scaling curves for those tuples exercises the full metric
// pipeline. See DESIGN.md §2 for the substitution rationale.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// CPUSpec describes one processor socket.
type CPUSpec struct {
	Model          string  // marketing name, e.g. "AMD Opteron 6134"
	ClockHz        float64 // core clock
	CoresPerSocket int
	FlopsPerCycle  float64 // peak double-precision flops per core per cycle
	IdleWatts      float64 // socket power at idle
	MaxWatts       float64 // socket power at full load
}

// MemorySpec describes a node's memory system.
type MemorySpec struct {
	CapacityBytes float64 // installed DRAM per node
	BandwidthBps  float64 // sustainable (STREAM triad) bandwidth per node
	IdleWatts     float64 // DRAM background power per node
	ActiveWatts   float64 // additional power at full bandwidth
}

// DiskSpec describes a node's local disk.
type DiskSpec struct {
	BandwidthBps  float64 // sequential write bandwidth
	CapacityBytes float64
	IdleWatts     float64
	ActiveWatts   float64 // additional power while streaming
}

// NICSpec describes a node's network interface.
type NICSpec struct {
	BandwidthBps float64 // per-port bandwidth
	LatencySec   float64 // one-way small-message latency
	IdleWatts    float64
	ActiveWatts  float64 // additional power at full line rate
}

// NodeSpec aggregates the per-node components.
type NodeSpec struct {
	Sockets   int
	CPU       CPUSpec
	Memory    MemorySpec
	Disk      DiskSpec
	NIC       NICSpec
	BaseWatts float64 // motherboard, fans, glue logic
}

// Cores returns the number of cores in one node.
func (n NodeSpec) Cores() int { return n.Sockets * n.CPU.CoresPerSocket }

// StorageSpec describes the shared storage backend (an NFS-style file
// server): an aggregate bandwidth that all clients contend for, a per-client
// ceiling, and its own power draw. A zero AggregateBps means nodes use only
// their local disks.
type StorageSpec struct {
	AggregateBps float64 // backend ceiling across all clients
	PerClientBps float64 // per-node ceiling (client link / protocol bound)
	Watts        float64 // backend box, constant
}

// InterconnectSpec describes the cluster fabric.
type InterconnectSpec struct {
	Name        string
	LinkBps     float64 // per-link bandwidth
	LatencySec  float64
	SwitchWatts float64 // fabric switches, constant while powered
}

// PSUSpec describes the power-supply efficiency curve. Wall power is DC
// power divided by efficiency; efficiency is interpolated between the
// low-load and high-load points (real PSUs are least efficient near idle).
type PSUSpec struct {
	EffAtIdle float64 // efficiency at (near) zero DC load, e.g. 0.72
	EffAtFull float64 // efficiency at rated load, e.g. 0.90
	RatedDC   float64 // DC watts at which EffAtFull applies
}

// Efficiency returns the interpolated efficiency at the given DC load.
func (p PSUSpec) Efficiency(dcWatts float64) float64 {
	if p.RatedDC <= 0 || p.EffAtFull <= 0 {
		return 1 // disabled: ideal supply
	}
	frac := dcWatts / p.RatedDC
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return p.EffAtIdle + (p.EffAtFull-p.EffAtIdle)*frac
}

// Spec is a complete cluster description.
type Spec struct {
	Name         string
	Nodes        int
	Node         NodeSpec
	Interconnect InterconnectSpec
	Storage      StorageSpec
	PSU          PSUSpec // per node
}

// Validate checks the spec for obviously-broken parameters.
func (s *Spec) Validate() error {
	switch {
	case s.Nodes <= 0:
		return errors.New("cluster: node count must be positive")
	case s.Node.Sockets <= 0:
		return errors.New("cluster: sockets per node must be positive")
	case s.Node.CPU.CoresPerSocket <= 0:
		return errors.New("cluster: cores per socket must be positive")
	case s.Node.CPU.ClockHz <= 0:
		return errors.New("cluster: clock must be positive")
	case s.Node.CPU.FlopsPerCycle <= 0:
		return errors.New("cluster: flops per cycle must be positive")
	case s.Node.CPU.MaxWatts < s.Node.CPU.IdleWatts:
		return errors.New("cluster: CPU max power below idle power")
	case s.Node.Memory.BandwidthBps <= 0:
		return errors.New("cluster: memory bandwidth must be positive")
	case s.Node.Memory.CapacityBytes <= 0:
		return errors.New("cluster: memory capacity must be positive")
	case s.Node.Disk.BandwidthBps <= 0:
		return errors.New("cluster: disk bandwidth must be positive")
	case s.Node.NIC.BandwidthBps <= 0:
		return errors.New("cluster: NIC bandwidth must be positive")
	}
	return nil
}

// TotalCores returns the cluster's core count.
func (s *Spec) TotalCores() int { return s.Nodes * s.Node.Cores() }

// Placement selects how MPI processes map onto nodes.
type Placement int

const (
	// Block placement fills each node before using the next (the common
	// default of cluster schedulers, and what the paper's core sweep does).
	Block Placement = iota
	// Cyclic placement deals processes round-robin across all nodes.
	Cyclic
)

func (p Placement) String() string {
	switch p {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Distribute maps procs MPI processes onto the cluster's nodes and returns
// the number of processes on each node. Nodes with zero processes are idle
// but still powered (the whole cluster sits behind the wall meter).
func (s *Spec) Distribute(procs int, pl Placement) ([]int, error) {
	return s.DistributeInto(procs, pl, nil)
}

// DistributeInto is Distribute filling a caller-provided buffer when it
// has the capacity (hot sweep loops recycle one buffer per worker); a
// nil or too-small buf allocates as Distribute does.
func (s *Spec) DistributeInto(procs int, pl Placement, buf []int) ([]int, error) {
	if procs <= 0 {
		return nil, errors.New("cluster: process count must be positive")
	}
	if procs > s.TotalCores() {
		return nil, fmt.Errorf("cluster: %d processes exceed %d cores", procs, s.TotalCores())
	}
	var out []int
	if cap(buf) >= s.Nodes {
		out = buf[:s.Nodes]
		for i := range out {
			out[i] = 0
		}
	} else {
		out = make([]int, s.Nodes)
	}
	perNode := s.Node.Cores()
	switch pl {
	case Block:
		left := procs
		for i := range out {
			n := perNode
			if n > left {
				n = left
			}
			out[i] = n
			left -= n
			if left == 0 {
				break
			}
		}
	case Cyclic:
		// Dealing procs round-robin gives every node procs/Nodes
		// processes and the first procs%Nodes nodes one more.
		q, r := procs/s.Nodes, procs%s.Nodes
		for i := range out {
			out[i] = q
			if i < r {
				out[i]++
			}
		}
	default:
		return nil, fmt.Errorf("cluster: unknown placement %v", pl)
	}
	return out, nil
}

// ActiveNodes returns how many entries of a distribution are non-zero.
func ActiveNodes(dist []int) int {
	n := 0
	for _, p := range dist {
		if p > 0 {
			n++
		}
	}
	return n
}

// Util is the instantaneous utilisation of one node's components, each in
// [0, 1]. The power model maps Util to watts.
type Util struct {
	CPU  float64 // fraction of peak core-cycles in use
	Mem  float64 // fraction of peak memory bandwidth in use
	Disk float64 // fraction of local-disk bandwidth in use
	Net  float64 // fraction of NIC bandwidth in use
}

// Clamp returns u with every component clamped to [0, 1].
func (u Util) Clamp() Util {
	c := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return Util{CPU: c(u.CPU), Mem: c(u.Mem), Disk: c(u.Disk), Net: c(u.Net)}
}

// Phase is a period of constant load across the cluster.
type Phase struct {
	Duration units.Seconds
	NodeUtil []Util // one entry per node; missing entries mean idle
}

// LoadProfile is a benchmark's load on the cluster over time: a sequence of
// constant-load phases. It is what the power model integrates.
type LoadProfile struct {
	Phases []Phase
}

// Duration returns the total profile duration.
func (lp *LoadProfile) Duration() units.Seconds {
	var d units.Seconds
	for _, p := range lp.Phases {
		d += p.Duration
	}
	return d
}

// Validate checks the profile against a spec.
func (lp *LoadProfile) Validate(s *Spec) error {
	if len(lp.Phases) == 0 {
		return errors.New("cluster: empty load profile")
	}
	for i, p := range lp.Phases {
		// Written so that NaN fails too: a NaN or infinite duration would
		// size the meter's sample buffer from a meaningless count.
		if !(p.Duration > 0) || math.IsInf(float64(p.Duration), 1) {
			return fmt.Errorf("cluster: phase %d has duration %v, want a finite positive one", i, p.Duration)
		}
		if len(p.NodeUtil) > s.Nodes {
			return fmt.Errorf("cluster: phase %d has %d node entries for %d nodes",
				i, len(p.NodeUtil), s.Nodes)
		}
	}
	if d := lp.Duration(); math.IsInf(float64(d), 1) {
		return fmt.Errorf("cluster: load profile lasts %v: its phases overflow", d)
	}
	return nil
}

// UniformPhase builds a phase where the first activeNodes nodes carry u and
// the rest idle.
//
//greenvet:allow unusedexport -- a root benchmark or test uses it: allocs_test.go
func UniformPhase(d units.Seconds, activeNodes int, u Util) Phase {
	nu := make([]Util, activeNodes)
	for i := range nu {
		nu[i] = u.Clamp()
	}
	return Phase{Duration: d, NodeUtil: nu}
}

// Scratch is caller-owned storage for the one-phase load profiles the
// workload models build: a process-distribution buffer and a profile
// with its phase and node entries. A model handed a Scratch builds in
// it instead of allocating, so the profile it returns is valid only
// until the model's next use of the same Scratch; a sweep worker keeps
// one and drains each profile before its next benchmark. A nil
// *Scratch allocates afresh on every call, for callers that keep
// their profiles. A Scratch is not safe for concurrent use.
type Scratch struct {
	dist    []int
	nodes   []Util
	phases  [1]Phase
	profile LoadProfile
}

// Distribute is Spec.Distribute into the scratch's buffer.
func (s *Scratch) Distribute(spec *Spec, procs int, pl Placement) ([]int, error) {
	if s == nil {
		return spec.Distribute(procs, pl)
	}
	dist, err := spec.DistributeInto(procs, pl, s.dist)
	if err != nil {
		return nil, err
	}
	s.dist = dist
	return dist, nil
}

// nodeBuf returns n node entries for the caller to overwrite, every one
// of them: a recycled buffer keeps the previous profile's loads.
func (s *Scratch) nodeBuf(n int) []Util {
	if s == nil {
		return make([]Util, n)
	}
	if cap(s.nodes) < n {
		s.nodes = make([]Util, n)
	}
	s.nodes = s.nodes[:n]
	return s.nodes
}

// NodeLoads returns n idle node entries, for a model that sets the
// loads of its phase one node at a time before passing them to
// OnePhase.
func (s *Scratch) NodeLoads(n int) []Util {
	nu := s.nodeBuf(n)
	clear(nu)
	return nu
}

// OnePhase returns a profile of one phase lasting d with the given node
// loads.
func (s *Scratch) OnePhase(d units.Seconds, nodeUtil []Util) *LoadProfile {
	ph := Phase{Duration: d, NodeUtil: nodeUtil}
	if s == nil {
		return &LoadProfile{Phases: []Phase{ph}}
	}
	s.phases[0] = ph
	s.profile.Phases = s.phases[:]
	return &s.profile
}

// FromDistribution returns a one-phase profile lasting d where node i
// carries a load scaled by its share of processes: a node running k of
// its c cores at full tilt has CPU utilisation k/c. f maps a node's
// process count to its components' utilisation; nodes without
// processes idle.
//
// f must be a pure function of (procs, cores): FromDistribution calls
// it only where the per-node process count changes from the previous
// node's and reuses the last result otherwise, so a block or cyclic
// distribution, which has at most two distinct non-zero counts, costs
// at most a few calls however many nodes it spans.
func (s *Scratch) FromDistribution(d units.Seconds, spec *Spec, dist []int, f func(procs, cores int) Util) *LoadProfile {
	nu := s.nodeBuf(len(dist))
	cores := spec.Node.Cores()
	prev, u := 0, Util{}
	for i, p := range dist {
		if p <= 0 {
			nu[i] = Util{}
			continue
		}
		if p != prev {
			prev, u = p, f(p, cores).Clamp()
		}
		nu[i] = u
	}
	return s.OnePhase(d, nu)
}
