// Package power turns machine-model load into watts: component-level power
// models, PSU wall-power conversion, a simulated wall-plug meter in the
// style of the Watts Up? PRO ES used by the paper (Figure 1), and a
// least-squares calibration fit.
//
// Measurement pathway (mirrors the paper's): the cluster's load profile is
// evaluated into an exact piecewise-constant power signal; the meter samples
// that signal at a fixed interval (1 s for the Watts Up? PRO), quantises to
// its resolution (0.1 W) and adds zero-mean gauge noise; energy is then the
// trapezoidal integral of the sampled trace.
package power

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/units"
)

// Model maps component utilisation to electrical power for one cluster spec.
type Model struct {
	Spec *cluster.Spec

	// DisablePSU treats supplies as ideal (DC == wall). Ablation knob.
	DisablePSU bool

	// CPUExponent is the exponent relating CPU utilisation to dynamic CPU
	// power; 1 is the linear model used for the headline results. Values
	// below 1 model clock-gating-poor parts whose power rises steeply at
	// low utilisation.
	CPUExponent float64
}

// NewModel returns a power model for spec with default parameters.
func NewModel(spec *cluster.Spec) (*Model, error) {
	if spec == nil {
		return nil, errors.New("power: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Model{Spec: spec, CPUExponent: 1}, nil
}

// cpuDyn returns the utilisation term for CPU dynamic power.
func (m *Model) cpuDyn(u float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		return 1
	}
	exp := m.CPUExponent
	if exp == 0 {
		exp = 1
	}
	if exp == 1 {
		return u
	}
	// Integer-ish exponents only need a couple of multiplies; use the
	// general path for everything else.
	switch exp {
	case 2:
		return u * u
	case 3:
		return u * u * u
	default:
		return math.Pow(u, exp)
	}
}

// NodeDC returns the DC power of one node at utilisation u, in watts.
func (m *Model) NodeDC(u cluster.Util) float64 {
	u = u.Clamp()
	n := m.Spec.Node
	p := n.BaseWatts
	p += float64(n.Sockets) * (n.CPU.IdleWatts + (n.CPU.MaxWatts-n.CPU.IdleWatts)*m.cpuDyn(u.CPU))
	p += n.Memory.IdleWatts + n.Memory.ActiveWatts*u.Mem
	p += n.Disk.IdleWatts + n.Disk.ActiveWatts*u.Disk
	p += n.NIC.IdleWatts + n.NIC.ActiveWatts*u.Net
	return p
}

// NodeWall returns the wall (AC) power of one node at utilisation u,
// applying the PSU efficiency curve.
func (m *Model) NodeWall(u cluster.Util) float64 {
	dc := m.NodeDC(u)
	if m.DisablePSU {
		return dc
	}
	eff := m.Spec.PSU.Efficiency(dc)
	if eff <= 0 {
		return dc
	}
	return dc / eff
}

// ClusterPower returns the wall power of the entire cluster when node i runs
// at utils[i]; nodes beyond len(utils) are idle but powered. The fabric
// switch and the shared-storage backend always draw their constant power —
// they are inside the metered envelope, as in the paper's Figure 1 setup.
//
// NodeWall is a pure function of the util, so it is evaluated once per
// run of bit-identical utils and its watts are added once per node, in
// node order: the sum is the per-node sum's, bit for bit. A block or
// cyclic phase has at most three distinct node loads, idle included.
func (m *Model) ClusterPower(utils []cluster.Util) units.Watts {
	if len(utils) > m.Spec.Nodes {
		utils = utils[:m.Spec.Nodes]
	}
	var p, w float64
	var prev cluster.Util
	for i := 0; i < m.Spec.Nodes; i++ {
		var u cluster.Util
		if i < len(utils) {
			u = utils[i]
		}
		if i == 0 || !sameUtil(u, prev) {
			w, prev = m.NodeWall(u), u
		}
		p += w
	}
	p += m.Spec.Interconnect.SwitchWatts
	p += m.Spec.Storage.Watts
	return units.Watts(p)
}

// sameUtil reports whether two utils are bit-identical, so that NodeWall
// cannot tell them apart (unlike ==, it separates 0 from -0 and matches
// a NaN with itself).
func sameUtil(a, b cluster.Util) bool {
	return math.Float64bits(a.CPU) == math.Float64bits(b.CPU) &&
		math.Float64bits(a.Mem) == math.Float64bits(b.Mem) &&
		math.Float64bits(a.Disk) == math.Float64bits(b.Disk) &&
		math.Float64bits(a.Net) == math.Float64bits(b.Net)
}

// ProfileTrace evaluates a load profile into the exact piecewise-constant
// cluster power signal, emitting one sample at each phase boundary (both
// sides, so trapezoidal integration is exact).
//
//greenvet:allow unusedexport -- a root benchmark or test uses it: bench_test.go
func (m *Model) ProfileTrace(lp *cluster.LoadProfile) (*series.Trace, error) {
	return m.ProfileTraceInto(lp, series.New(2*len(lp.Phases)))
}

// ProfileTraceInto is ProfileTrace evaluating into tr, which is reset
// first and returned. Reusing one trace across evaluations keeps the
// meter's hot path (one exact signal per benchmark attempt) free of
// per-call sample allocations; the samples are identical to a fresh
// ProfileTrace's.
func (m *Model) ProfileTraceInto(lp *cluster.LoadProfile, tr *series.Trace) (*series.Trace, error) {
	if err := lp.Validate(m.Spec); err != nil {
		return nil, err
	}
	tr.Reset()
	var at units.Seconds
	for _, ph := range lp.Phases {
		p := m.ClusterPower(ph.NodeUtil)
		if err := tr.Append(at, p); err != nil {
			return nil, err
		}
		at += ph.Duration
		if err := tr.Append(at, p); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// MeterConfig configures the simulated wall-plug meter.
type MeterConfig struct {
	Interval     units.Seconds // sampling period; Watts Up? PRO ES: 1 s
	QuantumWatts float64       // display resolution; Watts Up? PRO ES: 0.1 W
	NoiseStdDev  float64       // gauge noise, standard deviation in watts
	Seed         uint64        // deterministic noise stream
	DropRate     float64       // probability a sample is lost (failure injection)
	GlitchRate   float64       // probability a sample carries a glitch spike (failure injection)
	GlitchWatts  float64       // glitch spike magnitude, standard deviation in watts
}

// WattsUpPRO returns the configuration matching the meter the paper used.
func WattsUpPRO(seed uint64) MeterConfig {
	return MeterConfig{Interval: 1, QuantumWatts: 0.1, NoiseStdDev: 0.5, Seed: seed}
}

// Meter is a simulated wall-plug power meter.
//
// The meter's random stream (gauge noise, glitches, dropped samples) is
// a function of its config and the sample index alone, never of the
// signal: every trace a meter samples sees the same draws at the same
// indices. The meter therefore draws the stream once and caches it by
// sample index, extending the cache lazily and in draw order when a
// longer trace arrives; NewMeter and Reconfigure start a new stream. A
// sweep cell's benchmarks and retried attempts all share one config, so
// only the cell's longest trace draws fresh values.
//
// Sample times only increase, so Sample walks the exact trace with a
// forward cursor instead of searching it for every sample.
//
// A Meter is not safe for concurrent use.
type Meter struct {
	cfg    MeterConfig
	rec    obs.Recorder
	origin units.Seconds
	// draws is the cached random stream by sample index; rng is the
	// generator's state after the last cached draw.
	draws []meterDraw
	rng   sim.RNG
	// exact is internal scratch for Measure's piecewise-constant signal;
	// it never escapes the meter, so reusing it is always safe.
	exact series.Trace
	// out is the sampled-trace scratch, reused only after ReuseSampleBuffer
	// opted in (the returned trace then aliases it).
	out   series.Trace
	reuse bool
}

// meterDraw is one sample index's share of the meter's random stream.
// The noise and glitch values stay separate because Sample adds them to
// the signal one after the other; their sum would round differently.
type meterDraw struct {
	noise    float64 // gauge noise, drawn when NoiseStdDev > 0
	glitch   float64 // glitch excursion, valid when glitched
	glitched bool
	dropped  bool
}

// Instrument attaches an observability recorder: every sampling window
// becomes a span on the "meter" track carrying sample/drop/glitch
// counts. Recording is passive — the sampled trace is identical with or
// without it.
func (mt *Meter) Instrument(rec obs.Recorder) { mt.rec = rec }

// SetOrigin places subsequent sampling-window spans at the given offset
// on the campaign's virtual-time axis (profiles themselves start at 0).
func (mt *Meter) SetOrigin(at units.Seconds) { mt.origin = at }

// NewMeter validates the configuration and returns a meter.
func NewMeter(cfg MeterConfig) (*Meter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Meter{cfg: cfg, rng: *sim.NewRNG(cfg.Seed)}, nil
}

// validate checks the meter configuration's parameters.
func (cfg MeterConfig) validate() error {
	if !(cfg.Interval > 0) { // also refuses NaN
		return errors.New("power: meter interval must be positive")
	}
	if cfg.QuantumWatts < 0 || cfg.NoiseStdDev < 0 {
		return errors.New("power: negative meter quantum or noise")
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return fmt.Errorf("power: drop rate %v outside [0, 1)", cfg.DropRate)
	}
	if cfg.GlitchRate < 0 || cfg.GlitchRate >= 1 {
		return fmt.Errorf("power: glitch rate %v outside [0, 1)", cfg.GlitchRate)
	}
	if cfg.GlitchWatts < 0 {
		return fmt.Errorf("power: negative glitch magnitude %v", cfg.GlitchWatts)
	}
	return nil
}

// Reconfigure resets the meter to the state NewMeter(cfg) would return —
// recorder detached, origin zero, draw cache emptied and reseeded —
// while keeping its buffers. Recycling one meter across the cells of a
// sweep is how the scheduler's per-worker scratch avoids re-growing the
// buffers for every cell; sampling behaviour is bit-identical to a
// freshly-constructed meter's.
func (mt *Meter) Reconfigure(cfg MeterConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	mt.cfg, mt.rec, mt.origin = cfg, nil, 0
	mt.draws, mt.rng = mt.draws[:0], *sim.NewRNG(cfg.Seed)
	return nil
}

// ReuseSampleBuffer opts the meter into recycling the sampled-trace
// buffer: after this call, a trace returned by Sample or Measure is only
// valid until the next Sample or Measure call. Callers that fold each
// trace into scalars before measuring again (the suite runner) opt in;
// everyone else keeps the retain-forever default.
func (mt *Meter) ReuseSampleBuffer() { mt.reuse = true }

// MaxSamples bounds how many samples one metering window may take:
// 2^24, which is 194 days at the Watts Up? PRO's 1 s interval. Every
// sample costs a cached draw (24 bytes) and, in a sampled trace, a
// 16-byte sample, so the bound keeps one window under about 700 MB; the
// longest window the paper's systems produce is a few thousand samples.
// A span that implies more samples is refused before anything is
// allocated; so is a sample clock that, being too far from zero for the
// interval to advance it, would otherwise never reach the span's end.
const MaxSamples = 1 << 24

// Measure samples the exact signal of model×profile the way the physical
// meter would: fixed-interval sampling, quantisation, gauge noise, optional
// sample loss. The returned trace covers the whole profile duration.
func (mt *Meter) Measure(model *Model, lp *cluster.LoadProfile) (*series.Trace, error) {
	exact, err := mt.profile(model, lp)
	if err != nil {
		return nil, err
	}
	return mt.Sample(exact)
}

// MeasureFold is Measure folding the samples into their scalars instead
// of keeping them: the fold's energy, mean, peak and count equal, bit
// for bit, what Measure's trace reports. It draws and records exactly
// as Measure does. A caller that needs only the scalars (a clean suite
// run) never materialises the sampled trace.
func (mt *Meter) MeasureFold(model *Model, lp *cluster.LoadProfile) (series.Fold, error) {
	exact, err := mt.profile(model, lp)
	if err != nil {
		return series.Fold{}, err
	}
	_, f, err := mt.sample(exact, false)
	return f, err
}

// profile evaluates model×lp into the meter's exact-signal scratch.
func (mt *Meter) profile(model *Model, lp *cluster.LoadProfile) (*series.Trace, error) {
	if mt.exact.Samples() == nil {
		mt.exact = *series.New(2 * len(lp.Phases))
	}
	return model.ProfileTraceInto(lp, &mt.exact)
}

// Sample applies the meter's sampling behaviour to an arbitrary exact trace.
func (mt *Meter) Sample(exact *series.Trace) (*series.Trace, error) {
	out, _, err := mt.sample(exact, true)
	return out, err
}

// sample is the meter's one sampling loop. With traced set, every kept
// sample is appended to the returned trace, and folded as well when a
// recorder needs the window's scalars; otherwise it is only added to
// the returned fold and no trace is built. The sample clock only moves
// forward, so appending needs no ordering check.
func (mt *Meter) sample(exact *series.Trace, traced bool) (*series.Trace, series.Fold, error) {
	var fold series.Fold
	start, end, err := exact.Span()
	if err != nil {
		return nil, fold, err
	}
	interval := mt.cfg.Interval
	// n, the sample count the span implies, sizes both the sampled-trace
	// buffer and the draw cache; the loop extends either if rounding in
	// the clock adds a sample. Written so that NaN and overflow refuse.
	span := float64(end-start) / float64(interval)
	if !(span <= MaxSamples-2) {
		return nil, fold, fmt.Errorf("power: a %v s window at a %v s interval needs more than %d samples", end-start, interval, MaxSamples)
	}
	n := int(span) + 2
	var out *series.Trace
	if traced {
		out = mt.sampleBuffer(n)
	}
	recorded := traced && mt.rec != nil
	draws := mt.drawsFor(n)
	ss := exact.Samples()
	first, final := ss[0], ss[len(ss)-1]
	// k is the cursor: the first exact sample at or after the current
	// sample time, which is where Interpolate's search would land.
	k := 1
	dropped, glitched := 0, 0
	for i, at := 0, start; ; i, at = i+1, at+interval {
		clamped := at
		last := false
		if clamped >= end {
			clamped, last = end, true
		}
		// Trace.Interpolate, with the cursor in place of its search.
		var p units.Watts
		switch {
		case clamped <= first.At:
			p = first.Power
		case clamped >= final.At:
			p = final.Power
		default:
			for ss[k].At < clamped {
				k++
			}
			a, b := ss[k-1], ss[k]
			if b.At == a.At { //greenvet:allow floateq -- exact duplicate-timestamp identity, not a tolerance test
				p = b.Power
			} else {
				frac := float64(clamped-a.At) / float64(b.At-a.At)
				p = a.Power + units.Watts(frac)*(b.Power-a.Power)
			}
		}
		if i == len(draws) {
			// Past the implied count: the clock is rounding, or is stuck
			// because the interval is below half an ulp of the time.
			if i >= MaxSamples {
				return nil, series.Fold{}, fmt.Errorf("power: window takes more than %d samples", MaxSamples)
			}
			if !last && at+interval == at { //greenvet:allow floateq -- a clock that adding the interval leaves unchanged never reaches the window's end
				return nil, series.Fold{}, fmt.Errorf("power: sample clock stalls at %v s with a %v s interval", at, interval)
			}
			draws = mt.drawsFor(i + 1)
		}
		d := &draws[i]
		v := float64(p)
		if mt.cfg.NoiseStdDev > 0 {
			v += d.noise
		}
		// Glitches (failure injection): an occasional mis-read perturbs the
		// sample by a large excursion.
		if d.glitched {
			v += d.glitch
			glitched++
		}
		if q := mt.cfg.QuantumWatts; q > 0 {
			v = float64(int64(v/q+0.5)) * q
		}
		if v < 0 {
			v = 0
		}
		// Never drop the boundary samples: the window must span the trace.
		if d.dropped && at != start && !last { //greenvet:allow floateq -- boundary samples are identified by exact virtual timestamps
			dropped++
			continue
		}
		if traced {
			out.AppendOrdered(clamped, units.Watts(v))
			if recorded {
				fold.Add(clamped, units.Watts(v))
			}
		} else {
			fold.Add(clamped, units.Watts(v))
		}
		if last {
			break
		}
	}
	if mt.rec != nil {
		mt.record(start, end, fold, dropped, glitched)
	}
	return out, fold, nil
}

// sampleBuffer returns an empty trace with room for n samples: the
// meter's own buffer once ReuseSampleBuffer opted in, a new one
// otherwise.
func (mt *Meter) sampleBuffer(n int) *series.Trace {
	switch {
	case !mt.reuse:
		return series.New(n)
	case mt.out.Samples() == nil:
		mt.out = *series.New(n)
	default:
		mt.out.Reset()
	}
	return &mt.out
}

// record reports one sampling window to the meter's recorder: a span on
// the meter track and the window's counters.
func (mt *Meter) record(start, end units.Seconds, fold series.Fold, dropped, glitched int) {
	attrs := make([]obs.Attr, 4, 5)
	attrs[0] = obs.Int("samples", fold.Len())
	attrs[1] = obs.Int("dropped", dropped)
	attrs[2] = obs.Int("glitched", glitched)
	attrs[3] = obs.Secs("interval", mt.cfg.Interval)
	// Mean window power rides along so live-plane consumers can show
	// watts without re-integrating the trace. Derived purely from the
	// already-sampled series: determinism is untouched.
	if mean, err := fold.MeanPower(); err == nil {
		attrs = append(attrs, obs.F64("mean_watts", float64(mean)))
	}
	mt.rec.Span(obs.Span{
		Track: obs.TrackMeter,
		Name:  obs.NameMeterWindow,
		Start: mt.origin + start,
		End:   mt.origin + end,
		Attrs: attrs,
	})
	mt.rec.Count("meter.windows", 1)
	mt.rec.Count("meter.samples", float64(fold.Len()))
	mt.rec.Count("meter.samples_dropped", float64(dropped))
	mt.rec.Count("meter.samples_glitched", float64(glitched))
	mt.rec.Observe("meter.window_seconds", float64(end-start))
}

// drawsFor returns the meter's random stream with at least n draws,
// drawing the missing ones in the order the sampling loop consumes them
// per sample: gauge noise, then the glitch decision and magnitude, then
// the drop decision. Each draw is guarded by its rate, so a meter
// without glitches or drops consumes exactly the seed's noise stream.
// The cache grows geometrically, so a run of ever-longer traces
// reallocates it a logarithmic number of times.
func (mt *Meter) drawsFor(n int) []meterDraw {
	d := mt.draws
	if n <= len(d) {
		return d
	}
	if n > cap(d) {
		d = append(make([]meterDraw, 0, max(n, 2*cap(d))), d...)
	}
	cfg, rng := &mt.cfg, &mt.rng
	for len(d) < n {
		var x meterDraw
		if cfg.NoiseStdDev > 0 {
			x.noise = rng.NormAt(0, cfg.NoiseStdDev)
		}
		if cfg.GlitchRate > 0 && rng.Float64() < cfg.GlitchRate {
			x.glitch, x.glitched = rng.NormAt(0, cfg.GlitchWatts), true
		}
		x.dropped = cfg.DropRate > 0 && rng.Float64() < cfg.DropRate
		d = append(d, x)
	}
	mt.draws = d
	return d
}
