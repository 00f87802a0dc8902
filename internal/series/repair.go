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
	out, _, rep, err := new(Repairer).repair(t, interval, sigma, true)
	return out, rep, err
}

// Repairer runs Trace.Repair with working buffers it keeps from one call
// to the next, so repairing a stream of traces stops allocating once the
// buffers have grown to the longest trace. The trace it returns is its
// own and stays valid only until its next Repair call. The zero value is
// ready to use; a Repairer is not safe for concurrent use.
//
// A repair reads its input in two passes, with a selection between
// them. The key pass counts the gap samples and writes the sort key
// (sortKey) of each inner sample's absolute second difference; a radix
// selection over those keys (median) gives the noise scale; the output
// pass tests each sample against it as it reaches it and writes the
// repaired sample, or, for RepairFold, folds it, so a folded repair
// never stores its output.
type Repairer struct {
	keys []uint64
	out  Trace
}

// Repair repairs t as Trace.Repair does, into the Repairer's buffers.
func (r *Repairer) Repair(t *Trace, interval units.Seconds, sigma float64) (*Trace, RepairReport, error) {
	out, _, rep, err := r.repair(t, interval, sigma, true)
	return out, rep, err
}

// RepairFold is Repair folding the repaired samples into their scalars
// instead of writing them: the fold equals, bit for bit, the Fold of the
// trace Repair returns, and the report is the same. A caller that needs
// only the scalars (a suite measurement) never materialises the
// n+GapsFilled repaired samples.
func (r *Repairer) RepairFold(t *Trace, interval units.Seconds, sigma float64) (Fold, RepairReport, error) {
	_, f, rep, err := r.repair(t, interval, sigma, false)
	return f, rep, err
}

// repair is the one repair. With traced set, the output pass writes the
// repaired trace and returns it; otherwise it folds each sample as it
// makes it and returns the fold.
func (r *Repairer) repair(t *Trace, interval units.Seconds, sigma float64, traced bool) (*Trace, Fold, RepairReport, error) {
	var rep RepairReport
	if !(interval > 0) { // also refuses NaN
		return nil, Fold{}, rep, errors.New("series: repair needs a positive meter interval")
	}
	if sigma <= 0 {
		sigma = 6
	}
	ss := t.samples
	n := len(ss)
	out := &r.out
	if n < 3 {
		if !traced {
			return nil, t.Fold(), rep, nil
		}
		out.samples = append(out.samples[:0], ss...)
		return out, Fold{}, rep, nil
	}
	r.keys = resize(r.keys, n-2)
	keys := r.keys

	// The key pass. The robust local-noise scale comes from the median
	// absolute second difference: d_i = p_i - (p_{i-1}+p_{i+1})/2 is
	// ~1.22×noise for white gauge noise and (step/2) only at load steps,
	// which the neighbour-agreement test below excludes anyway. The same
	// pass counts the samples that will fill the gaps in the meter's
	// cadence, so the output is sized exactly and a runaway fill is
	// refused before anything is written.
	for i := 1; i < n; i++ {
		a, b := ss[i-1], ss[i]
		if i < n-1 {
			keys[i-1] = sortKey(absDev(a, b, ss[i+1]))
		}
		before := rep.GapsFilled
		for at := a.At + interval; at < b.At-interval/2; at += interval {
			if rep.GapsFilled++; rep.GapsFilled > maxFill {
				return nil, Fold{}, RepairReport{}, fmt.Errorf("series: repair would synthesise more than %d samples "+
					"(a hole from %v to %v at interval %v)", maxFill, a.At, b.At, interval)
			}
		}
		if rep.GapsFilled > before {
			rep.Gaps++
		}
	}
	limit := sigma * (1.4826 * median(keys))

	// An inner sample is a glitch when it lies far from its neighbours'
	// mean and its neighbours agree with each other better than with it.
	inner := func(i int) bool {
		d := absDev(ss[i-1], ss[i], ss[i+1])
		return d > limit && math.Abs(float64(ss[i+1].Power-ss[i-1].Power)) < d
	}
	// The ends get a one-sided test, end against its neighbour and that
	// neighbour against the next one in. It is skipped when every inner
	// sample is a glitch (possible only at a sigma below 1/1.4826), so a
	// clean sample always remains to take a rejected end's power from.
	clean := 1 // the first clean inner sample, if any
	for clean < n-1 && inner(clean) {
		clean++
	}
	ends := clean < n-1
	glitch0 := ends && endGlitch(ss[0], ss[1], ss[2], limit)
	glitchN := ends && endGlitch(ss[n-1], ss[n-2], ss[n-3], limit)
	glitch := func(i int) bool {
		switch i {
		case 0:
			return glitch0
		case n - 1:
			return glitchN
		}
		return inner(i)
	}
	first, last := 0, n-1 // the outermost clean samples
	if glitch0 {
		first = clean
	}
	for glitch(last) {
		last--
	}

	// The output pass. A glitch becomes the interpolation of the nearest
	// clean samples on either side (lo and hi), and each gap is filled by
	// linear interpolation between the de-glitched samples around it. A
	// glitch before the first clean sample or after the last one, an end
	// among them, takes that sample's power, so the fold takes in a
	// rejected end at its repaired power too. Input order carries over,
	// so no sample needs an ordering check.
	if traced {
		out.samples = resize(out.samples, n+rep.GapsFilled)
	}
	var f Fold
	var acc run
	o, lo, hi := 0, 0, 0
	var prev units.Watts
	for i, s := range ss {
		p := s.Power
		if !glitch(i) {
			lo = i
		} else {
			rep.OutliersRejected++
			switch {
			case i < first:
				p = ss[first].Power
			case i > last:
				p = ss[last].Power
			default:
				if hi <= i {
					for hi = i + 1; glitch(hi); hi++ {
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
		}
		if i > 0 {
			a := ss[i-1]
			for at := a.At + interval; at < s.At-interval/2; at += interval {
				frac := float64(at-a.At) / float64(s.At-a.At)
				fill := Sample{At: at, Power: prev + units.Watts(frac)*(p-prev)}
				if traced {
					out.samples[o] = fill
					o++
				} else {
					acc = acc.add(fill)
				}
			}
		}
		q := Sample{At: s.At, Power: p}
		switch {
		case traced:
			out.samples[o] = q
			o++
		case i == 0:
			f.first, acc = q, startRun(q)
		default:
			acc = acc.add(q)
		}
		prev = p
	}
	if traced {
		return out, f, rep, nil
	}
	f.n, f.run = n+rep.GapsFilled, acc
	return nil, f, rep, nil
}

// absDev is the absolute second difference at b, the sample between a
// and c: how far b lies from its neighbours' mean.
func absDev(a, b, c Sample) float64 {
	return math.Abs(float64(b.Power) - 0.5*float64(a.Power+c.Power))
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

// sortKey maps x to a key whose unsigned order is the order
// sort.Float64s gives: NaN of either sign and any payload first, then
// -Inf up to +Inf, with -0 just below +0. A negative value flips every
// bit, so a larger magnitude sorts lower; any other value flips only the
// sign bit, so it sorts above every negative one. NaN becomes key 0,
// below -Inf's. No step branches on the value.
func sortKey(x float64) uint64 {
	b := math.Float64bits(x)
	k := b ^ (uint64(int64(b)>>63) | 1<<63)
	nan := uint64(int64(0x7ff0000000000000-(b&^(1<<63))) >> 63) // all ones when |x| is NaN
	return k &^ nan
}

// fromKey inverts sortKey. Key 0 becomes a NaN.
func fromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// median returns the median of the values whose sortKey keys are keys,
// reordering keys: the middle value of the sorted values, or the mean of
// the two middle ones, as sorting with sort.Float64s and reading the
// middle gives it. Empty input returns 0. A NaN sorts first, so a median
// that reaches one is NaN.
func median(keys []uint64) float64 {
	n := len(keys)
	if n == 0 {
		return 0
	}
	mid, below := selectKey(keys, n/2)
	if n%2 == 1 {
		return fromKey(mid)
	}
	return 0.5 * (fromKey(below) + fromKey(mid))
}

// The radix selection's parameters: a round counts keys by an
// 8-bit digit, in four interleaved tables so that a run of keys with one
// digit, which ties make common, does not wait on one counter; the first
// round takes its digit window from a sorted sample of sampleLen keys.
const (
	radixBits = 8
	buckets   = 1 << radixBits
	tables    = 4
	sampleLen = 32
)

// selectKey returns the key sorting would put at keys[k], and for k > 0
// the one sorting would put at keys[k-1]; it reorders keys.
//
// It is a radix selection. A round maps each candidate key x to the
// digit min((x-base)>>shift, buckets-1), with x-base floored at 0,
// counts the candidates per digit, and keeps only those whose digit
// holds rank k. Any digit that never decreases as x grows keeps the
// answer, so the window only decides how much a round removes. The
// first round centres its window on the middle of a sample of the keys,
// with bucket 0 for the keys below it and buckets-1 for those above, so
// the tied keys at the median usually make up the whole bucket it keeps;
// a sample whose middle keys tie gives a window of one key's width.
// Later rounds span their candidates' least to greatest key exactly. The
// rounds end when the candidates all tie.
//
// Rank k-1 is the answer itself while the kept bucket still holds a key
// below it; otherwise it is the greatest key of the lower buckets, which
// the round that puts rank k first in its bucket records.
//
// The min/max, counting and compaction loops do not branch on the keys.
func selectKey(keys []uint64, k int) (at, below uint64) {
	base, shift := uint64(0), 0
	if len(keys) >= 2*sampleLen {
		var sample [sampleLen]uint64
		for i := range sample {
			sample[i] = keys[i*len(keys)/sampleLen]
		}
		slices.Sort(sample[:])
		lo, hi := sample[sampleLen/2-sampleLen/8], sample[sampleLen/2+sampleLen/8]
		shift = max(bits.Len64(hi-lo)-(radixBits-1), 0)
		base = lo - min(lo, 1<<shift) // bucket 0 takes the keys below lo
	} else {
		lo, hi := minMax(keys)
		if lo == hi {
			return lo, lo
		}
		base, shift = lo, max(bits.Len64(hi-lo)-radixBits, 0)
	}
	first := true // rank k-1 still to be placed
	for {
		var count [tables][buckets]uint32
		i := 0
		for ; i+tables <= len(keys); i += tables {
			count[0][digit(keys[i], base, shift)]++
			count[1][digit(keys[i+1], base, shift)]++
			count[2][digit(keys[i+2], base, shift)]++
			count[3][digit(keys[i+3], base, shift)]++
		}
		for _, x := range keys[i:] {
			count[0][digit(x, base, shift)]++
		}
		var b uint64
		for ; ; b++ {
			c := int(count[0][b] + count[1][b] + count[2][b] + count[3][b])
			if k < c {
				break
			}
			k -= c
		}
		// Bucket b holds exactly the keys from lo to hi. It holds a key,
		// so its first offset key, base + b<<shift, does not overflow.
		lo, hi := base+b<<shift, ^uint64(0)
		if top, carry := bits.Add64(lo, 1<<shift-1, 0); b < buckets-1 && carry == 0 {
			hi = top
		}
		if b == 0 {
			lo = 0
		}
		j := 0
		if k == 0 && first {
			// Rank k opens bucket b, so rank k-1 closes the buckets below.
			first = false
			for _, x := range keys {
				_, out := bits.Sub64(hi-lo, x-lo, 0)
				_, under := bits.Sub64(x, lo, 0)
				keys[j] = x
				j += int(1 - out)
				below = max(below, x&-under)
			}
		} else {
			for _, x := range keys {
				_, out := bits.Sub64(hi-lo, x-lo, 0)
				keys[j] = x
				j += int(1 - out)
			}
		}
		keys = keys[:j]
		lo, hi = minMax(keys)
		if lo == hi {
			if k > 0 {
				below = lo
			}
			return lo, below
		}
		base, shift = lo, max(bits.Len64(hi-lo)-radixBits, 0)
	}
}

// digit is selectKey's bucket for key x: (x-base)>>shift, with x-base
// floored at 0 and the bucket capped at buckets-1.
func digit(x, base uint64, shift int) uint64 {
	off, borrow := bits.Sub64(x, base, 0)
	return min(off&(borrow-1)>>shift, buckets-1) & (buckets - 1)
}

// minMax returns the least and the greatest of keys, which is not empty.
func minMax(keys []uint64) (lo, hi uint64) {
	lo, hi = keys[0], keys[0]
	for _, x := range keys {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
