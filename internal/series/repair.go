package series

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/units"
)

// maxFill bounds the samples one repair may synthesise. A hole that
// needs more, such as a timestamp far past its neighbour or an interval
// too small to advance a clock of that magnitude, is an error instead of
// an unbounded fill.
const maxFill = 1 << 20

// RepairReport counts what the gap-tolerant repair pass did to a trace.
type RepairReport struct {
	// GapsFilled is the number of samples synthesised where the meter's
	// fixed cadence had holes (dropped samples).
	GapsFilled int
	// Gaps is the number of contiguous holes those samples filled.
	Gaps int
	// OutliersRejected is the number of glitch samples replaced by the
	// interpolation of their neighbours.
	OutliersRejected int
}

// Repair makes a meter trace from a faulty measurement path usable: glitch
// samples (isolated spikes inconsistent with both neighbours) are replaced
// by neighbour interpolation, and gaps in the meter's fixed sampling
// cadence are filled with linearly-interpolated samples. interval is the
// meter's nominal sampling period; sigma the outlier threshold in robust
// noise units (the paper's Watts Up? PRO class meter has ~0.5 W gauge
// noise, so sigma≈6 rejects only multi-watt excursions). Both repairs are
// counted, not hidden: the report goes into the suite result so a degraded
// measurement is visibly degraded.
//
// The pass is conservative with real signal: a spike is rejected only when
// its two neighbours agree with each other better than with it, so genuine
// load steps (where the neighbours disagree) survive untouched. The first
// and last samples have one neighbour each, so they get a one-sided test:
// the end is a glitch when it lies more than sigma noise units from its
// neighbour and that neighbour agrees with the next sample inward better
// than with it. A rejected end takes the power of the nearest clean
// sample and keeps its timestamp, so the trace still spans the benchmark
// window exactly.
//
// Repair returns a new trace on every call; a hot loop that folds each
// repaired trace into scalars before the next one uses a Repairer.
//
//greenvet:allow unusedexport -- a root benchmark or test uses it: allocs_test.go
func (t *Trace) Repair(interval units.Seconds, sigma float64) (*Trace, RepairReport, error) {
	return new(Repairer).Repair(t, interval, sigma)
}

// Repairer runs Trace.Repair with working buffers it keeps from one call
// to the next, so repairing a stream of traces stops allocating once the
// buffers have grown to the longest trace. The trace it returns is its
// own and stays valid only until its next Repair call. The zero value is
// ready to use; a Repairer is not safe for concurrent use.
type Repairer struct {
	absDev []float64
	sel    []float64
	glitch []bool
	out    Trace
}

// Repair repairs t as Trace.Repair does, into the Repairer's buffers. It
// makes three passes over t: the second differences and the gap count,
// the glitch test against their median, and the output, which replaces
// glitches and fills gaps as it writes each sample in place.
func (r *Repairer) Repair(t *Trace, interval units.Seconds, sigma float64) (*Trace, RepairReport, error) {
	var rep RepairReport
	if !(interval > 0) { // also refuses NaN
		return nil, rep, errors.New("series: repair needs a positive meter interval")
	}
	if sigma <= 0 {
		sigma = 6
	}
	ss := t.samples
	n := len(ss)
	out := &r.out
	if n < 3 {
		out.samples = append(out.samples[:0], ss...)
		return out, rep, nil
	}
	r.absDev, r.sel, r.glitch = resize(r.absDev, n-1), resize(r.sel, n-2), resize(r.glitch, n)
	absDev, sel, glitch := r.absDev, r.sel, r.glitch

	// Pass 1. The robust local-noise scale comes from the median absolute
	// second difference: d_i = p_i - (p_{i-1}+p_{i+1})/2 is ~1.22×noise
	// for white gauge noise and (step/2) only at load steps, which the
	// neighbour-agreement test below excludes anyway. The same pass
	// counts the samples that will fill the gaps in the meter's cadence,
	// so the output is sized exactly and a runaway fill is refused before
	// anything is written.
	for i := 1; i < n; i++ {
		a, b := ss[i-1], ss[i]
		if i < n-1 {
			d := math.Abs(float64(b.Power) - 0.5*float64(a.Power+ss[i+1].Power))
			absDev[i], sel[i-1] = d, d
		}
		before := rep.GapsFilled
		for at := a.At + interval; at < b.At-interval/2; at += interval {
			if rep.GapsFilled++; rep.GapsFilled > maxFill {
				return nil, RepairReport{}, fmt.Errorf("series: repair would synthesise more than %d samples "+
					"(a hole from %v to %v at interval %v)", maxFill, a.At, b.At, interval)
			}
		}
		if rep.GapsFilled > before {
			rep.Gaps++
		}
	}
	noise := 1.4826 * median(sel)

	// Pass 2: a glitch is a sample far from its neighbours' mean, whose
	// neighbours agree with each other better than with it.
	for i := 1; i < n-1; i++ {
		d := absDev[i]
		spread := math.Abs(float64(ss[i+1].Power - ss[i-1].Power))
		glitch[i] = d > sigma*noise && spread < d
		if glitch[i] {
			rep.OutliersRejected++
		}
	}
	// The ends' one-sided test, end against its neighbour and that
	// neighbour against the next one in. It is skipped when every inner
	// sample is a glitch (possible only at a sigma below 1/1.4826), so a
	// clean sample always remains to take a rejected end's power from.
	ends := rep.OutliersRejected < n-2
	for _, e := range [2][3]int{{0, 1, 2}, {n - 1, n - 2, n - 3}} {
		glitch[e[0]] = ends && endGlitch(ss[e[0]], ss[e[1]], ss[e[2]], sigma*noise)
		if glitch[e[0]] {
			rep.OutliersRejected++
		}
	}
	first, last := 0, n-1 // the outermost clean samples
	for glitch[first] {
		first++
	}
	for glitch[last] {
		last--
	}

	// Pass 3: write the output. A glitch becomes the interpolation of
	// the nearest clean samples on either side (lo and hi), and each gap
	// is filled by linear interpolation between the de-glitched samples
	// around it. A glitch before the first clean sample or after the last
	// one, an end among them, takes that sample's power. Input order
	// carries over, so no sample needs an ordering check.
	out.samples = resize(out.samples, n+rep.GapsFilled)
	o, lo, hi := 0, 0, 0
	var prev units.Watts
	for i, s := range ss {
		p := s.Power
		switch {
		case !glitch[i]:
			lo = i
		case i < first:
			p = ss[first].Power
		case i > last:
			p = ss[last].Power
		default:
			if hi <= i {
				for hi = i + 1; glitch[hi]; hi++ {
				}
			}
			a, b := ss[lo], ss[hi]
			if b.At == a.At { //greenvet:allow floateq -- exact duplicate-timestamp identity, not a tolerance test
				p = b.Power
			} else {
				frac := float64(s.At-a.At) / float64(b.At-a.At)
				p = a.Power + units.Watts(frac)*(b.Power-a.Power)
			}
		}
		if i > 0 {
			a := ss[i-1]
			for at := a.At + interval; at < s.At-interval/2; at += interval {
				frac := float64(at-a.At) / float64(s.At-a.At)
				out.samples[o] = Sample{At: at, Power: prev + units.Watts(frac)*(p-prev)}
				o++
			}
		}
		out.samples[o] = Sample{At: s.At, Power: p}
		o++
		prev = p
	}
	return out, rep, nil
}

// endGlitch reports whether end, a trace's first or last sample, fails
// the one-sided glitch test: it lies more than limit from its neighbour
// next, and next agrees with inner, the sample beyond it, better than
// with end.
func endGlitch(end, next, inner Sample, limit float64) bool {
	d := math.Abs(float64(end.Power - next.Power))
	return d > limit && math.Abs(float64(next.Power-inner.Power)) < d
}

// resize returns s at length n, reallocated at exactly n when its
// capacity is short. Its contents are stale; the caller overwrites them.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// median returns the median of xs, reordering xs. Empty input returns 0.
// It orders values as sort.Float64s does, NaN first, so the result is
// the sorted slice's median; it finds it by selection in O(n) instead of
// sorting.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Move the NaNs to the front, where sorting would put them, so the
	// selection below compares with < alone.
	nan := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	mid := len(xs) / 2
	if mid < nan {
		return math.NaN()
	}
	selectNth(xs[nan:], mid-nan)
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	if mid-1 < nan {
		return math.NaN()
	}
	// Selection left xs[nan:mid] no greater than xs[mid]; its largest
	// value is the sorted slice's xs[mid-1].
	lo := xs[nan]
	for _, x := range xs[nan+1 : mid] {
		if x > lo {
			lo = x
		}
	}
	return 0.5 * (lo + xs[mid])
}

// selectNth reorders xs, which holds no NaN, so that xs[k] is the value
// sorting would put there, nothing before it is greater and nothing
// after it is smaller. It is quickselect with a median-of-three pivot
// and a three-way partition, so runs of equal values end a round early.
// A range that fails to shrink within its round budget is sorted, which
// bounds the worst case at O(n log n).
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 16 && budget > 0; budget-- {
		p := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	slices.Sort(xs[lo:hi])
}

// medianOf3 returns the middle one of a, b and c.
func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}
