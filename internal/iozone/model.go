package iozone

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/units"
)

// desScratch is a reusable discrete-event stack: an engine plus the
// backend bound to it. Sweeps call Simulate once per cell, and building
// the stack fresh each time dominated the cell's allocation budget;
// Reset/Reconfigure restore both to freshly-constructed state, so a
// recycled stack simulates bit-identically to a new one.
type desScratch struct {
	eng *sim.Engine
	be  *storage.Backend
}

var desPool = sync.Pool{New: func() any { return &desScratch{} }}

// ModelConfig drives the simulated-cluster IOzone write test.
type ModelConfig struct {
	Spec *cluster.Spec
	// Nodes is the number of client nodes performing I/O (the paper's
	// Figure 4 sweeps node count, not process count).
	Nodes int
	// Procs optionally records the MPI process count of the enclosing TGI
	// sweep; extra processes on a node add a small CPU overhead but no
	// extra backend throughput. 0 means one process per node.
	Procs int
	// FileBytesPerNode is each node's file size. 0 means 16 GiB.
	FileBytesPerNode float64
	// ClientOverhead is the fraction of per-client protocol overhead
	// (metadata round trips, commit barriers) reducing effective rate.
	ClientOverhead float64
}

// DefaultModelConfig returns the configuration used by the paper
// reproduction sweeps.
func DefaultModelConfig(spec *cluster.Spec, nodes int) ModelConfig {
	return ModelConfig{
		Spec:             spec,
		Nodes:            nodes,
		FileBytesPerNode: 40 << 30,
		ClientOverhead:   0.05,
	}
}

// ModelResult is the outcome of a simulated IOzone run.
type ModelResult struct {
	Nodes     int
	Aggregate units.BytesPerSec // cluster-wide write rate
	Duration  units.Seconds     // makespan of the slowest client
	Profile   *cluster.LoadProfile
	Shared    bool // true when a shared backend was the bottleneck path
	// Engine summarises the discrete-event kernel's work (zero for the
	// local-disk path, which needs no event simulation).
	Engine sim.Stats
}

// Simulate evaluates the write test against the cluster's storage topology.
//
// Shared-backend clusters (Fire): every client streams its file through the
// backend's SharedResource in a discrete-event simulation — aggregate
// throughput ramps with client count until the backend ceiling, after which
// adding nodes only adds power draw, which is exactly the saturating shape
// of the paper's Figure 4. Local-disk clusters (SystemG): every node writes
// at its own disk speed and aggregate throughput scales linearly.
func Simulate(cfg ModelConfig) (*ModelResult, error) {
	if cfg.Spec == nil {
		return nil, errors.New("iozone: nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes <= 0 || cfg.Nodes > cfg.Spec.Nodes {
		return nil, fmt.Errorf("iozone: %d client nodes outside [1, %d]", cfg.Nodes, cfg.Spec.Nodes)
	}
	if cfg.ClientOverhead < 0 || cfg.ClientOverhead >= 1 {
		return nil, fmt.Errorf("iozone: client overhead %v outside [0, 1)", cfg.ClientOverhead)
	}
	fileBytes := cfg.FileBytesPerNode
	if fileBytes == 0 {
		fileBytes = 16 << 30
	}
	if fileBytes < 0 {
		return nil, errors.New("iozone: negative file size")
	}
	procs := cfg.Procs
	if procs <= 0 {
		procs = cfg.Nodes
	}

	shared := cfg.Spec.Storage.AggregateBps > 0
	var makespan float64
	var engStats sim.Stats
	if shared {
		sc := desPool.Get().(*desScratch)
		defer desPool.Put(sc)
		if sc.eng == nil {
			freshEng := sim.NewEngine(0)
			be, err := storage.NewBackend(freshEng, cfg.Spec.Storage.AggregateBps, cfg.Spec.Storage.PerClientBps)
			if err != nil {
				return nil, err
			}
			sc.eng, sc.be = freshEng, be
		} else {
			sc.eng.Reset(0)
			if err := sc.be.Reconfigure(cfg.Spec.Storage.AggregateBps, cfg.Spec.Storage.PerClientBps); err != nil {
				return nil, err
			}
		}
		eng, be := sc.eng, sc.be
		for i := 0; i < cfg.Nodes; i++ {
			if err := be.SubmitWrite(fileBytes, nil); err != nil {
				return nil, err
			}
		}
		if _, err := eng.RunAll(); err != nil {
			return nil, err
		}
		engStats = eng.Stats()
		// The queue only ever holds completion events, so after RunAll the
		// virtual clock sits at the last client's finish time: the makespan.
		makespan = float64(eng.Now())
	} else {
		// Local disks: each node streams at its own disk bandwidth.
		makespan = fileBytes / cfg.Spec.Node.Disk.BandwidthBps
	}
	makespan /= 1 - cfg.ClientOverhead
	if makespan <= 0 {
		return nil, errors.New("iozone: degenerate zero makespan")
	}
	agg := float64(cfg.Nodes) * fileBytes / makespan

	// Load profile. Disk/net utilisation from the achieved per-node rate;
	// a small CPU cost per process issuing I/O.
	perNodeRate := agg / float64(cfg.Nodes)
	base := procs / cfg.Nodes
	extra := procs % cfg.Nodes
	cores := cfg.Spec.Node.Cores()
	phase := cluster.Phase{
		Duration: units.Seconds(makespan),
		NodeUtil: make([]cluster.Util, cfg.Spec.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		// Round-robin process placement: the first procs%nodes client
		// nodes carry one extra process, and every client runs at least
		// one.
		d := base
		if i < extra {
			d++
		}
		if d == 0 {
			d = 1
		}
		// Each writer process costs ~8% of one core; expressed as a
		// fraction of the node's total CPU.
		u := cluster.Util{
			CPU: math.Min(1, 0.08*float64(d)/float64(cores)),
		}
		if shared {
			u.Net = perNodeRate / cfg.Spec.Node.NIC.BandwidthBps
			u.Disk = 0 // data leaves over the network to the backend
		} else {
			u.Disk = perNodeRate / cfg.Spec.Node.Disk.BandwidthBps
		}
		phase.NodeUtil[i] = u.Clamp()
	}
	return &ModelResult{
		Nodes:     cfg.Nodes,
		Aggregate: units.BytesPerSec(agg),
		Duration:  units.Seconds(makespan),
		Profile:   &cluster.LoadProfile{Phases: []cluster.Phase{phase}},
		Shared:    shared,
		Engine:    engStats,
	}, nil
}
