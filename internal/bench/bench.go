// Package bench is the workload layer of the TGI pipeline: a registry of
// pluggable benchmark workloads the suite runner assembles its run steps
// from. The paper's TGI equations are benchmark-agnostic — any suite that
// stresses distinct subsystems feeds the same EE/REE/weighting pipeline —
// so the orchestration layer should not know each benchmark by name.
// Opening a new workload means implementing Workload in one file and
// registering it; the suite, resilience machinery, journaling, tracing and
// reports all pick it up unchanged.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/iozone"
	"repro/internal/sim"
)

// Canonical benchmark names as they appear in measurements.
const (
	HPL          = "HPL"
	DGEMM        = "DGEMM"
	STREAM       = "STREAM"
	PTRANS       = "PTRANS"
	RandomAccess = "RandomAccess"
	FFT          = "FFT"
	IOzone       = "IOzone"
	Beff         = "b_eff"
)

// Env is the per-run execution environment a workload simulates under:
// everything the enclosing suite config contributes to one benchmark run.
type Env struct {
	// Procs is the MPI process count of the enclosing suite run.
	Procs int
	// Placement maps processes onto nodes.
	Placement cluster.Placement
	// Scratch, when set, is where the workload builds its distribution,
	// load profile and discrete-event stack, so the returned profile is
	// valid only until the next Simulate on the same Scratch. Nil
	// allocates a profile the caller may keep.
	Scratch *Scratch
}

// Scratch is one caller's reusable storage for workload simulations:
// the profile buffers every model builds in, and IOzone's
// discrete-event stack. A sweep worker owns one and drains each
// profile before its next Simulate; reusing it never changes a result.
// The zero value is ready to use; a Scratch is not safe for concurrent
// use.
type Scratch struct {
	load cluster.Scratch
	io   iozone.Stack
}

// loads returns the profile buffers, or nil for a nil scratch.
func (s *Scratch) loads() *cluster.Scratch {
	if s == nil {
		return nil
	}
	return &s.load
}

// stack returns IOzone's discrete-event stack, or nil for a nil scratch.
func (s *Scratch) stack() *iozone.Stack {
	if s == nil {
		return nil
	}
	return &s.io
}

// Simulated is what a workload's performance model hands the measurement
// stage: the performance number in the workload's metric unit and the
// load profile the power model integrates.
type Simulated struct {
	Perf    float64
	Profile *cluster.LoadProfile
	// Engine, when the model ran on the discrete-event kernel, carries
	// its work stats for the attempt's trace span.
	Engine *sim.Stats
}

// Workload is one benchmark of a TGI suite: a name, the unit its
// performance is reported in, and the simulation that turns a machine
// spec into a performance + load-profile pair. Implementations must be
// stateless and safe for concurrent use — the parallel sweep scheduler
// runs one workload at several process counts at once.
type Workload interface {
	// Name is the canonical benchmark name as reported in measurements.
	Name() string
	// Metric names the performance unit (GFLOPS, MBPS, GUPS, ...).
	Metric() string
	// Simulate runs the performance model against the (possibly
	// fault-degraded) spec under env.
	Simulate(spec *cluster.Spec, env Env) (Simulated, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Workload{}
	// canonical indexes workloads by their exact canonical name, so the
	// hot path — the suite runner resolves each cell's steps by canonical
	// name — looks up without folding (and without allocating).
	canonical = map[string]Workload{}
	order     []string // registration order, for stable listings
)

// normalize folds a benchmark name for lookup: lower-cased with
// separators removed, so "hpl", "HPL", "randomaccess" and "b_eff"/"beff"
// all resolve. Already-folded names pass through without allocating.
func normalize(name string) string {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == '_' || c == '-' || ('A' <= c && c <= 'Z') {
			s := strings.ToLower(name)
			s = strings.ReplaceAll(s, "_", "")
			s = strings.ReplaceAll(s, "-", "")
			return s
		}
	}
	return name
}

// Register adds a workload to the registry. Registering a second
// workload under an already-taken name is a programming error.
func Register(w Workload) {
	key := normalize(w.Name())
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("bench: workload %q registered twice", w.Name()))
	}
	registry[key] = w
	canonical[w.Name()] = w
	order = append(order, w.Name())
}

// Lookup resolves a benchmark name (case- and separator-insensitively)
// to its registered workload.
func Lookup(name string) (Workload, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if w, ok := canonical[name]; ok {
		return w, true
	}
	w, ok := registry[normalize(name)]
	return w, ok
}

// Names returns every registered workload's canonical name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// Resolve canonicalises an ordered benchmark list against the registry,
// rejecting unknown names and duplicates with one descriptive error.
func Resolve(names []string) ([]string, error) {
	if err := Validate(names); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(names))
	for _, name := range names {
		w, _ := Lookup(name)
		out = append(out, w.Name())
	}
	return out, nil
}

// Validate checks an ordered benchmark list the way Resolve does —
// every name registered, no duplicates after canonicalisation — without
// building the canonical list. Config validation runs once per sweep
// cell, so the accept path must not allocate; suite lists are a handful
// of names, making the quadratic duplicate scan cheaper than a map.
func Validate(names []string) error {
	for i, name := range names {
		w, ok := Lookup(name)
		if !ok {
			return fmt.Errorf("bench: unknown benchmark %q (registered: %s)",
				name, strings.Join(Names(), ", "))
		}
		for j := 0; j < i; j++ {
			if prev, _ := Lookup(names[j]); prev == w {
				return fmt.Errorf("bench: benchmark %q listed twice", w.Name())
			}
		}
	}
	return nil
}

// PaperOrder returns the paper's three benchmarks in run order.
func PaperOrder() []string {
	return []string{HPL, STREAM, IOzone}
}

// ExtendedOrder returns the seven benchmarks of the extended suite in
// run order — the full HPC Challenge-style coverage the paper's
// introduction motivates: compute (HPL, DGEMM), memory bandwidth
// (STREAM), memory latency (RandomAccess), interconnect (PTRANS), mixed
// compute/all-to-all (FFT) and I/O (IOzone). b_eff stays opt-in: it is
// registered but joins a suite only by explicit request.
func ExtendedOrder() []string {
	return []string{HPL, DGEMM, STREAM, PTRANS, RandomAccess, FFT, IOzone}
}
