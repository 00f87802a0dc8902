// Package faults is the fault model of the TGI pipeline: a seeded,
// JSON-serialisable plan of the failures a real measurement campaign
// suffers — node crashes mid-benchmark, straggler nodes running at a
// fraction of their rated clock or bandwidth, a degraded interconnect,
// and a wall-plug meter that drops or glitches samples.
//
// The paper's procedure assumes every benchmark completes cleanly behind
// the meter; production TGI campaigns do not get that luxury. A Plan makes
// the failure assumptions explicit and reproducible: every random choice
// flows through sim.RNG streams forked from the plan's seed and keyed by
// (benchmark, process count, attempt), so two runs of the same plan inject
// exactly the same faults, and an empty plan injects nothing at all.
package faults

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// Crash is a scheduled, deterministic node crash: node Node dies At
// virtual seconds into the named benchmark's attempt. An empty Benchmark
// matches every benchmark; Attempt selects which attempt it hits (0 = the
// first), modelling a fault that a retry then survives.
type Crash struct {
	Benchmark string        `json:"benchmark,omitempty"`
	Node      int           `json:"node"`
	At        units.Seconds `json:"at"`
	Attempt   int           `json:"attempt,omitempty"`
}

// Straggler describes probabilistically degraded nodes: with probability
// Prob per benchmark attempt, one node runs at ClockFactor of its rated
// clock and BandwidthFactor of its rated bandwidth (each in (0, 1]; zero
// means "not degraded"). Because the suite's benchmarks are
// bulk-synchronous, the whole run proceeds at the slowest node's pace: the
// injected slowdown is 1/min(ClockFactor, BandwidthFactor).
type Straggler struct {
	Prob            float64 `json:"prob,omitempty"`
	ClockFactor     float64 `json:"clock_factor,omitempty"`
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
}

// Interconnect degrades the cluster fabric for the whole run: link
// bandwidth is multiplied by BandwidthFactor (in (0, 1]) and latency by
// LatencyFactor (>= 1). Zero values mean "unchanged".
type Interconnect struct {
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
	LatencyFactor   float64 `json:"latency_factor,omitempty"`
}

// Meter injects measurement-path faults: DropRate is the probability a
// sample is lost, GlitchRate the probability a sample is perturbed by a
// spike of stddev GlitchWatts. When any meter fault is active the suite
// runs the gap-tolerant repair pass (series.Repair) over each trace and
// reports how many samples it filled or rejected.
type Meter struct {
	DropRate    float64 `json:"drop_rate,omitempty"`
	GlitchRate  float64 `json:"glitch_rate,omitempty"`
	GlitchWatts float64 `json:"glitch_watts,omitempty"`
}

// Plan is a complete, reproducible fault scenario. The zero value (and a
// nil *Plan) injects nothing: the pipeline's output is bit-for-bit the
// fault-free one.
type Plan struct {
	Seed      uint64        `json:"seed,omitempty"`
	CrashProb float64       `json:"crash_prob,omitempty"` // per-attempt node-crash probability
	Crashes   []Crash       `json:"crashes,omitempty"`    // scheduled crashes
	Straggler *Straggler    `json:"straggler,omitempty"`
	Fabric    *Interconnect `json:"interconnect,omitempty"`
	Meter     *Meter        `json:"meter,omitempty"`
}

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.CrashProb < 0 || p.CrashProb >= 1 {
		return fmt.Errorf("faults: crash probability %v outside [0, 1)", p.CrashProb)
	}
	for i, c := range p.Crashes {
		if c.At < 0 {
			return fmt.Errorf("faults: crash %d at negative time %v", i, c.At)
		}
		if c.Node < 0 {
			return fmt.Errorf("faults: crash %d on negative node %d", i, c.Node)
		}
		if c.Attempt < 0 {
			return fmt.Errorf("faults: crash %d on negative attempt %d", i, c.Attempt)
		}
	}
	if s := p.Straggler; s != nil {
		if s.Prob < 0 || s.Prob > 1 {
			return fmt.Errorf("faults: straggler probability %v outside [0, 1]", s.Prob)
		}
		if s.ClockFactor < 0 || s.ClockFactor > 1 {
			return fmt.Errorf("faults: straggler clock factor %v outside (0, 1]", s.ClockFactor)
		}
		if s.BandwidthFactor < 0 || s.BandwidthFactor > 1 {
			return fmt.Errorf("faults: straggler bandwidth factor %v outside (0, 1]", s.BandwidthFactor)
		}
	}
	if f := p.Fabric; f != nil {
		if f.BandwidthFactor < 0 || f.BandwidthFactor > 1 {
			return fmt.Errorf("faults: interconnect bandwidth factor %v outside (0, 1]", f.BandwidthFactor)
		}
		if f.LatencyFactor != 0 && f.LatencyFactor < 1 {
			return fmt.Errorf("faults: interconnect latency factor %v below 1", f.LatencyFactor)
		}
	}
	if m := p.Meter; m != nil {
		if m.DropRate < 0 || m.DropRate >= 1 {
			return fmt.Errorf("faults: meter drop rate %v outside [0, 1)", m.DropRate)
		}
		if m.GlitchRate < 0 || m.GlitchRate >= 1 {
			return fmt.Errorf("faults: meter glitch rate %v outside [0, 1)", m.GlitchRate)
		}
		if m.GlitchWatts < 0 {
			return fmt.Errorf("faults: negative glitch magnitude %v", m.GlitchWatts)
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (p.CrashProb == 0 && len(p.Crashes) == 0 &&
		p.Straggler == nil && p.Fabric == nil && p.Meter == nil)
}

// MeterFaulty reports whether the plan perturbs the measurement path, i.e.
// whether the suite should run the gap-tolerant repair pass.
func (p *Plan) MeterFaulty() bool {
	return p != nil && p.Meter != nil && (p.Meter.DropRate > 0 || p.Meter.GlitchRate > 0)
}

// Injection is the concrete fault draw for one benchmark attempt.
type Injection struct {
	// CrashAt is the virtual time into the attempt at which a node dies;
	// negative means no crash. The attempt fails iff CrashAt falls inside
	// the benchmark's (possibly straggler-stretched) runtime.
	CrashAt   units.Seconds
	CrashNode int
	// Slowdown >= 1 stretches the attempt's runtime (straggler); 1 means
	// the node set ran at full speed.
	Slowdown float64
}

// none is the no-fault injection.
func none() Injection { return Injection{CrashAt: -1, Slowdown: 1} }

// Record emits the injection as trace events on the benchmark's track:
// a "straggler" event at the attempt's start carrying the slowdown, and
// a "crash" event at the crash's position on the campaign clock. start
// is the attempt's start on that clock and dur the attempt's (already
// slowdown-stretched) runtime, so the event notes whether the crash
// actually landed inside the run. A no-fault injection records nothing.
func (inj Injection) Record(rec obs.Recorder, bench string, attempt int, start, dur units.Seconds) {
	if rec == nil {
		return
	}
	if inj.Slowdown > 1 {
		rec.Event(obs.Event{
			Track: bench,
			Name:  obs.EventStraggler,
			At:    start,
			Attrs: []obs.Attr{
				obs.Int("attempt", attempt+1),
				obs.F64("slowdown", inj.Slowdown),
			},
		})
		rec.Count("faults.stragglers", 1)
	}
	if inj.CrashAt >= 0 {
		hit := "false"
		if inj.CrashAt < dur {
			hit = "true"
		}
		at := start + inj.CrashAt
		if inj.CrashAt >= dur {
			at = start + dur // the node survived the whole attempt
		}
		rec.Event(obs.Event{
			Track: bench,
			Name:  obs.EventNodeCrash,
			At:    at,
			Attrs: []obs.Attr{
				obs.Int("attempt", attempt+1),
				obs.Int("node", inj.CrashNode),
				obs.Secs("crash_at", inj.CrashAt),
				obs.Str("hit", hit),
			},
		})
		rec.Count("faults.crashes", 1)
	}
}

// hashString is FNV-1a, used to key per-benchmark RNG streams.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Draw resolves the plan for one attempt of one benchmark: dur is the
// attempt's fault-free virtual runtime and nodes the cluster's node count.
// The draw is a pure function of (plan, bench, procs, attempt) — the
// enclosing run's own RNG streams are never touched, so adding a fault
// plan cannot perturb the measurement noise of surviving benchmarks.
func (p *Plan) Draw(bench string, procs, attempt int, dur units.Seconds, nodes int) Injection {
	inj := none()
	if p.Empty() {
		return inj
	}
	rng := sim.NewRNG(p.Seed).Fork(hashString(bench)).Fork(uint64(procs)).Fork(uint64(attempt))
	// Draw order (straggler, then crash) is fixed: it is part of the
	// plan's reproducibility contract.
	if s := p.Straggler; s != nil && s.Prob > 0 && rng.Float64() < s.Prob {
		factor := 1.0
		if s.ClockFactor > 0 && s.ClockFactor < factor {
			factor = s.ClockFactor
		}
		if s.BandwidthFactor > 0 && s.BandwidthFactor < factor {
			factor = s.BandwidthFactor
		}
		if factor > 0 && factor < 1 {
			inj.Slowdown = 1 / factor
		}
	}
	// Scheduled crashes take precedence over the probabilistic draw.
	for _, c := range p.Crashes {
		if c.Attempt == attempt && (c.Benchmark == "" || c.Benchmark == bench) {
			inj.CrashAt, inj.CrashNode = c.At, c.Node
			return inj
		}
	}
	if p.CrashProb > 0 && rng.Float64() < p.CrashProb {
		inj.CrashAt = units.Seconds(rng.Float64()) * dur * units.Seconds(inj.Slowdown)
		if nodes > 0 {
			inj.CrashNode = rng.Intn(nodes)
		}
	}
	return inj
}

// ApplySpec returns the spec the degraded cluster presents to the
// benchmark models: interconnect bandwidth scaled down and latency scaled
// up. Without an interconnect fault the spec is returned unmodified.
func (p *Plan) ApplySpec(spec *cluster.Spec) *cluster.Spec {
	if p == nil || p.Fabric == nil || spec == nil {
		return spec
	}
	out := *spec // Spec is all values: a shallow copy is a deep copy
	if f := p.Fabric.BandwidthFactor; f > 0 && f < 1 {
		out.Interconnect.LinkBps *= f
	}
	if f := p.Fabric.LatencyFactor; f > 1 {
		out.Interconnect.LatencySec *= f
	}
	return &out
}

// ApplyMeter overlays the plan's meter faults on a meter configuration.
func (p *Plan) ApplyMeter(cfg power.MeterConfig) power.MeterConfig {
	if p == nil || p.Meter == nil {
		return cfg
	}
	if p.Meter.DropRate > 0 {
		cfg.DropRate = p.Meter.DropRate
	}
	if p.Meter.GlitchRate > 0 {
		cfg.GlitchRate = p.Meter.GlitchRate
		cfg.GlitchWatts = p.Meter.GlitchWatts
		if cfg.GlitchWatts == 0 {
			cfg.GlitchWatts = 50 // a meter mis-read is a large excursion
		}
	}
	return cfg
}

// Load reads and validates a plan written as JSON, by hand or by
// json.Marshal.
func Load(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("faults: %s is not a valid fault plan: %v", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return &p, nil
}
