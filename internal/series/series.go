// Package series provides time-series support for power traces: the sample
// streams produced by a wall-plug power meter, integration of power into
// energy, and repair of the gaps and glitches a faulty meter leaves.
//
// The paper's measurement setup (Figure 1) places a Watts Up? PRO ES meter
// between the outlet and the system; the meter emits one aggregate power
// sample per second. Energy for a benchmark is the integral of those samples
// over the benchmark's execution window — this package is that integral.
package series

import (
	"errors"
	"fmt"

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

// Append adds a sample. Samples must arrive in nondecreasing time order.
func (t *Trace) Append(at units.Seconds, p units.Watts) error {
	if n := len(t.samples); n > 0 && at < t.samples[n-1].At {
		return fmt.Errorf("%w: %v after %v", ErrUnordered, at, t.samples[n-1].At)
	}
	t.samples = append(t.samples, Sample{At: at, Power: p})
	return nil
}

// AppendOrdered adds a sample that the caller knows is no earlier than
// the last one: unlike Append, it does not check the order. A producer
// whose clock only moves forward (the power meter) uses it.
func (t *Trace) AppendOrdered(at units.Seconds, p units.Watts) {
	t.samples = append(t.samples, Sample{At: at, Power: p})
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
