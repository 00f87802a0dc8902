// Package series provides time-series support for power traces: the sample
// streams produced by a wall-plug power meter, integration of power into
// energy, resampling, and extraction of the window that corresponds to one
// benchmark run.
//
// The paper's measurement setup (Figure 1) places a Watts Up? PRO ES meter
// between the outlet and the system; the meter emits one aggregate power
// sample per second. Energy for a benchmark is the integral of those samples
// over the benchmark's execution window — this package is that integral.
package series

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// Sample is one (time, power) observation from a meter.
type Sample struct {
	At    units.Seconds `json:"at"`
	Power units.Watts   `json:"power"`
}

// Trace is a time-ordered sequence of power samples.
type Trace struct {
	samples []Sample
}

// ErrUnordered is returned when samples are appended out of time order.
var ErrUnordered = errors.New("series: samples out of time order")

// ErrTooFew is returned when an operation needs more samples than available.
var ErrTooFew = errors.New("series: too few samples")

// New returns a Trace pre-sized for n samples.
func New(n int) *Trace {
	return &Trace{samples: make([]Sample, 0, n)}
}

// FromSamples builds a trace from a sample slice, which must be in
// nondecreasing time order.
func FromSamples(ss []Sample) (*Trace, error) {
	t := New(len(ss))
	for _, s := range ss {
		if err := t.Append(s.At, s.Power); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Append adds a sample. Samples must arrive in nondecreasing time order.
func (t *Trace) Append(at units.Seconds, p units.Watts) error {
	if n := len(t.samples); n > 0 && at < t.samples[n-1].At {
		return fmt.Errorf("%w: %v after %v", ErrUnordered, at, t.samples[n-1].At)
	}
	t.samples = append(t.samples, Sample{At: at, Power: p})
	return nil
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.samples) }

// Reset empties the trace in place, keeping its sample storage so a
// hot loop (the sweep scheduler's per-worker meter scratch) can refill
// it without reallocating. Any Samples() slice previously handed out
// aliases the storage and is invalidated.
func (t *Trace) Reset() { t.samples = t.samples[:0] }

// Samples returns the underlying samples. The slice must not be mutated.
func (t *Trace) Samples() []Sample { return t.samples }

// At returns the i-th sample.
func (t *Trace) At(i int) Sample { return t.samples[i] }

// Span returns the first and last sample times.
func (t *Trace) Span() (start, end units.Seconds, err error) {
	if len(t.samples) == 0 {
		return 0, 0, ErrTooFew
	}
	return t.samples[0].At, t.samples[len(t.samples)-1].At, nil
}

// Energy integrates the trace with the trapezoidal rule over its full span.
func (t *Trace) Energy() (units.Joules, error) {
	f := t.Fold()
	return f.Energy()
}

// MeanPower returns the time-weighted mean power over the trace span.
func (t *Trace) MeanPower() (units.Watts, error) {
	f := t.Fold()
	return f.MeanPower()
}

// PeakPower returns the maximum sampled power.
func (t *Trace) PeakPower() (units.Watts, error) {
	f := t.Fold()
	return f.PeakPower()
}

// Fold folds the trace's samples, in order, into their scalars.
func (t *Trace) Fold() Fold {
	if len(t.samples) == 0 {
		return Fold{}
	}
	first := t.samples[0]
	r := startRun(first)
	for _, s := range t.samples[1:] {
		r = r.add(s)
	}
	return Fold{n: len(t.samples), first: first, run: r}
}

// Fold is a trace reduced to the scalars a measurement needs: sample
// count, first and last sample, peak power and trapezoidal energy. It is
// the one place that arithmetic is written. Adding a trace's samples in
// order gives bit for bit what the trace's Energy, MeanPower and
// PeakPower report, because those methods fold the trace; a meter can
// fold its samples as it takes them and never store them. The zero Fold
// is empty.
type Fold struct {
	n     int
	first Sample
	run   run
}

// run is the part of a fold that every sample updates. At four machine
// words it is small enough for the compiler to keep a local run in
// registers across a loop; a whole Fold, at seven, stays in memory.
type run struct {
	last   Sample
	peak   units.Watts
	energy float64
}

// startRun begins a run at its first sample.
func startRun(s Sample) run { return run{last: s, peak: s.Power} }

// add extends the run by the next sample: one trapezoid of energy, and
// the peak.
func (r run) add(s Sample) run {
	r.energy += 0.5 * float64(r.last.Power+s.Power) * float64(s.At-r.last.At)
	if s.Power > r.peak {
		r.peak = s.Power
	}
	r.last = s
	return r
}

// Add folds in the next sample. Samples must arrive in nondecreasing
// time order; unlike Trace.Append, Add does not check it.
func (f *Fold) Add(at units.Seconds, p units.Watts) {
	s := Sample{At: at, Power: p}
	if f.n == 0 {
		f.first, f.run = s, startRun(s)
	} else {
		f.run = f.run.add(s)
	}
	f.n++
}

// Len returns the number of samples folded in.
func (f *Fold) Len() int { return f.n }

// Energy returns the trapezoidal integral over the folded span.
func (f *Fold) Energy() (units.Joules, error) {
	if f.n < 2 {
		return 0, ErrTooFew
	}
	return units.Joules(f.run.energy), nil
}

// MeanPower returns the time-weighted mean power over the folded span.
func (f *Fold) MeanPower() (units.Watts, error) {
	e, err := f.Energy()
	if err != nil {
		return 0, err
	}
	start, end := f.first.At, f.run.last.At
	if end == start { //greenvet:allow floateq -- zero-span guard: start and end are the same stored sample time
		return f.first.Power, nil
	}
	return units.MeanPower(e, end-start), nil
}

// PeakPower returns the maximum power folded in.
func (f *Fold) PeakPower() (units.Watts, error) {
	if f.n == 0 {
		return 0, ErrTooFew
	}
	return f.run.peak, nil
}

// Interpolate returns the linearly-interpolated power at time at. Outside
// the span it clamps to the boundary sample.
func (t *Trace) Interpolate(at units.Seconds) (units.Watts, error) {
	n := len(t.samples)
	if n == 0 {
		return 0, ErrTooFew
	}
	if at <= t.samples[0].At {
		return t.samples[0].Power, nil
	}
	if at >= t.samples[n-1].At {
		return t.samples[n-1].Power, nil
	}
	i := sort.Search(n, func(k int) bool { return t.samples[k].At >= at })
	a, b := t.samples[i-1], t.samples[i]
	if b.At == a.At { //greenvet:allow floateq -- exact duplicate-timestamp identity, not a tolerance test
		return b.Power, nil
	}
	frac := float64(at-a.At) / float64(b.At-a.At)
	return a.Power + units.Watts(frac)*(b.Power-a.Power), nil
}

// Window extracts the sub-trace covering [start, end], adding interpolated
// boundary samples so the window integrates exactly over the requested
// interval. This is how a benchmark's execution window is aligned against a
// continuously-sampling wall meter.
func (t *Trace) Window(start, end units.Seconds) (*Trace, error) {
	if end < start {
		return nil, fmt.Errorf("series: window end %v before start %v", end, start)
	}
	if len(t.samples) == 0 {
		return nil, ErrTooFew
	}
	out := New(8)
	ps, err := t.Interpolate(start)
	if err != nil {
		return nil, err
	}
	if err := out.Append(start, ps); err != nil {
		return nil, err
	}
	for _, s := range t.samples {
		if s.At > start && s.At < end {
			if err := out.Append(s.At, s.Power); err != nil {
				return nil, err
			}
		}
	}
	pe, err := t.Interpolate(end)
	if err != nil {
		return nil, err
	}
	if err := out.Append(end, pe); err != nil {
		return nil, err
	}
	return out, nil
}

// Resample returns a new trace sampled at the fixed interval dt across the
// original span, using linear interpolation. A meter with a coarser clock is
// modelled by resampling a fine-grained model trace.
func (t *Trace) Resample(dt units.Seconds) (*Trace, error) {
	if dt <= 0 {
		return nil, errors.New("series: non-positive resample interval")
	}
	start, end, err := t.Span()
	if err != nil {
		return nil, err
	}
	n := int(math.Floor(float64(end-start)/float64(dt))) + 1
	out := New(n + 1)
	for i := 0; i < n; i++ {
		at := start + units.Seconds(float64(i)*float64(dt))
		p, err := t.Interpolate(at)
		if err != nil {
			return nil, err
		}
		if err := out.Append(at, p); err != nil {
			return nil, err
		}
	}
	if last := start + units.Seconds(float64(n-1)*float64(dt)); last < end {
		p, _ := t.Interpolate(end)
		if err := out.Append(end, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scale returns a new trace with every power value multiplied by k. Used to
// apply PSU efficiency or unit changes to a whole trace.
func (t *Trace) Scale(k float64) *Trace {
	out := New(len(t.samples))
	for _, s := range t.samples {
		out.samples = append(out.samples, Sample{At: s.At, Power: s.Power * units.Watts(k)})
	}
	return out
}

// Add returns the pointwise sum of two traces over the intersection of their
// spans, sampled at the union of their sample times. Summing per-node traces
// yields the cluster-level trace a wall meter would see.
func Add(a, b *Trace) (*Trace, error) {
	as, ae, err := a.Span()
	if err != nil {
		return nil, err
	}
	bs, be, err := b.Span()
	if err != nil {
		return nil, err
	}
	start := as
	if bs > start {
		start = bs
	}
	end := ae
	if be < end {
		end = be
	}
	if end < start {
		return nil, errors.New("series: traces do not overlap")
	}
	times := make([]float64, 0, a.Len()+b.Len())
	for _, s := range a.samples {
		if s.At >= start && s.At <= end {
			times = append(times, float64(s.At))
		}
	}
	for _, s := range b.samples {
		if s.At >= start && s.At <= end {
			times = append(times, float64(s.At))
		}
	}
	times = append(times, float64(start), float64(end))
	sort.Float64s(times)
	out := New(len(times))
	prev := math.Inf(-1)
	for _, tm := range times {
		if tm == prev { //greenvet:allow floateq -- exact duplicate-timestamp identity, not a tolerance test
			continue
		}
		prev = tm
		pa, err := a.Interpolate(units.Seconds(tm))
		if err != nil {
			return nil, err
		}
		pb, err := b.Interpolate(units.Seconds(tm))
		if err != nil {
			return nil, err
		}
		if err := out.Append(units.Seconds(tm), pa+pb); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Sum folds Add over one or more traces.
func Sum(traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, ErrTooFew
	}
	acc := traces[0]
	var err error
	for _, t := range traces[1:] {
		acc, err = Add(acc, t)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// DropSamples returns a copy of the trace with the samples at the given
// indices removed, used by failure-injection tests to model meter dropout.
func (t *Trace) DropSamples(indices ...int) *Trace {
	drop := make(map[int]bool, len(indices))
	for _, i := range indices {
		drop[i] = true
	}
	out := New(len(t.samples))
	for i, s := range t.samples {
		if !drop[i] {
			out.samples = append(out.samples, s)
		}
	}
	return out
}
