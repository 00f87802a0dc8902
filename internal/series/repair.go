package series

import (
	"errors"
	"math"
	"sort"

	"repro/internal/units"
)

// Gap locates one contiguous hole in a meter's sampling cadence: the
// surviving samples bracketing it and how many samples were synthesised
// inside. The observability layer turns these into trace events so an
// audited run shows *where* the measurement was reconstructed, not just
// how often.
type Gap struct {
	From   units.Seconds // last real sample before the hole
	To     units.Seconds // first real sample after the hole
	Filled int           // samples synthesised in between
}

// RepairReport counts what the gap-tolerant repair pass did to a trace.
type RepairReport struct {
	// GapsFilled is the number of samples synthesised where the meter's
	// fixed cadence had holes (dropped samples).
	GapsFilled int
	// OutliersRejected is the number of glitch samples replaced by the
	// interpolation of their neighbours.
	OutliersRejected int
	// Gaps locates each contiguous hole that was filled.
	Gaps []Gap
	// OutlierTimes records when each rejected glitch sample occurred.
	OutlierTimes []units.Seconds
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
// and last samples are never modified — the trace must keep spanning the
// benchmark window exactly.
func (t *Trace) Repair(interval units.Seconds, sigma float64) (*Trace, RepairReport, error) {
	var rep RepairReport
	if interval <= 0 {
		return nil, rep, errors.New("series: repair needs a positive meter interval")
	}
	if sigma <= 0 {
		sigma = 6
	}
	n := len(t.samples)
	if n < 3 {
		out := New(n)
		out.samples = append(out.samples, t.samples...)
		return out, rep, nil
	}

	// Robust local-noise scale from the median absolute second difference:
	// d_i = p_i - (p_{i-1}+p_{i+1})/2 is ~1.22×noise for white gauge noise
	// and (step/2) only at load steps, which the neighbour-agreement test
	// below excludes anyway.
	devs := make([]float64, 0, n-2)
	for i := 1; i < n-1; i++ {
		d := float64(t.samples[i].Power) -
			0.5*float64(t.samples[i-1].Power+t.samples[i+1].Power)
		devs = append(devs, math.Abs(d))
	}
	noise := 1.4826 * median(devs)

	// Pass 1: replace glitches in place.
	powers := make([]units.Watts, n)
	for i, s := range t.samples {
		powers[i] = s.Power
	}
	glitch := make([]bool, n)
	for i := 1; i < n-1; i++ {
		d := float64(t.samples[i].Power) -
			0.5*float64(t.samples[i-1].Power+t.samples[i+1].Power)
		spread := math.Abs(float64(t.samples[i+1].Power - t.samples[i-1].Power))
		if math.Abs(d) > sigma*noise && spread < math.Abs(d) {
			glitch[i] = true
			rep.OutliersRejected++
		}
	}
	if rep.OutliersRejected > 0 {
		rep.OutlierTimes = make([]units.Seconds, 0, rep.OutliersRejected)
	}
	for i := 1; i < n-1; i++ {
		if !glitch[i] {
			continue
		}
		lo := i - 1
		for lo > 0 && glitch[lo] {
			lo--
		}
		hi := i + 1
		for hi < n-1 && glitch[hi] {
			hi++
		}
		a, b := t.samples[lo], t.samples[hi]
		if b.At == a.At { //greenvet:allow floateq -- exact duplicate-timestamp identity, not a tolerance test
			powers[i] = b.Power
		} else {
			frac := float64(t.samples[i].At-a.At) / float64(b.At-a.At)
			powers[i] = powers[lo] + units.Watts(frac)*(powers[hi]-powers[lo])
		}
		rep.OutlierTimes = append(rep.OutlierTimes, t.samples[i].At)
	}

	// Pass 2: fill cadence gaps by linear interpolation between the
	// (already de-glitched) neighbours of each hole. Counting the holes
	// and fills first, with the same loop, sizes the outputs exactly.
	fills, gaps := 0, 0
	for i := 1; i < n; i++ {
		a, b := t.samples[i-1], t.samples[i]
		before := fills
		for at := a.At + interval; at < b.At-interval/2; at += interval {
			fills++
		}
		if fills > before {
			gaps++
		}
	}
	if gaps > 0 {
		rep.Gaps = make([]Gap, 0, gaps)
	}
	out := New(n + fills)
	for i := 0; i < n; i++ {
		if i > 0 {
			a, b := t.samples[i-1], t.samples[i]
			filled := 0
			for at := a.At + interval; at < b.At-interval/2; at += interval {
				frac := float64(at-a.At) / float64(b.At-a.At)
				p := powers[i-1] + units.Watts(frac)*(powers[i]-powers[i-1])
				if err := out.Append(at, p); err != nil {
					return nil, rep, err
				}
				rep.GapsFilled++
				filled++
			}
			if filled > 0 {
				rep.Gaps = append(rep.Gaps, Gap{From: a.At, To: b.At, Filled: filled})
			}
		}
		if err := out.Append(t.samples[i].At, powers[i]); err != nil {
			return nil, rep, err
		}
	}
	return out, rep, nil
}

// median returns the median of xs, mutating its order. Empty input
// returns 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return 0.5 * (xs[mid-1] + xs[mid])
}
