package series

import (
	"errors"
	"math"
	"sort"

	"repro/internal/units"
)

// referenceRepair is Trace.Repair written plainly, as the oracle the
// repair fuzz targets hold the Repairer to: the absolute second
// differences and their median by sorting, a glitch flag per sample,
// and the output built by appending. It refuses what Repair refuses
// except a runaway fill, which the fuzz traces' byte-sized time steps
// keep small wherever Repair accepts the trace.
func referenceRepair(t *Trace, interval units.Seconds, sigma float64) ([]Sample, RepairReport, error) {
	var rep RepairReport
	if !(interval > 0) {
		return nil, rep, errors.New("series: repair needs a positive meter interval")
	}
	if sigma <= 0 {
		sigma = 6
	}
	ss := t.Samples()
	n := len(ss)
	if n < 3 {
		return append([]Sample(nil), ss...), rep, nil
	}
	absDev := make([]float64, n)
	var sorted []float64
	for i := 1; i < n-1; i++ {
		absDev[i] = math.Abs(float64(ss[i].Power) - 0.5*float64(ss[i-1].Power+ss[i+1].Power))
		sorted = append(sorted, absDev[i])
	}
	sort.Float64s(sorted)
	m := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		m = 0.5 * (sorted[len(sorted)/2-1] + m)
	}
	limit := sigma * (1.4826 * m)

	glitch := make([]bool, n)
	for i := 1; i < n-1; i++ {
		glitch[i] = absDev[i] > limit && math.Abs(float64(ss[i+1].Power-ss[i-1].Power)) < absDev[i]
		if glitch[i] {
			rep.OutliersRejected++
		}
	}
	if rep.OutliersRejected < n-2 {
		glitch[0] = endGlitch(ss[0], ss[1], ss[2], limit)
		glitch[n-1] = endGlitch(ss[n-1], ss[n-2], ss[n-3], limit)
		for _, g := range []bool{glitch[0], glitch[n-1]} {
			if g {
				rep.OutliersRejected++
			}
		}
	}

	// Each sample's repaired power: a glitch takes the interpolation of
	// the nearest clean samples around it, or the power of the nearest
	// clean sample when it has one on one side only.
	power := make([]units.Watts, n)
	for i, s := range ss {
		power[i] = s.Power
		if !glitch[i] {
			continue
		}
		lo, hi := i-1, i+1
		for lo >= 0 && glitch[lo] {
			lo--
		}
		for hi < n && glitch[hi] {
			hi++
		}
		switch {
		case lo < 0:
			power[i] = ss[hi].Power
		case hi == n:
			power[i] = ss[lo].Power
		case ss[hi].At == ss[lo].At: //greenvet:allow floateq -- exact duplicate-timestamp identity, as Repair tests it
			power[i] = ss[hi].Power
		default:
			frac := float64(s.At-ss[lo].At) / float64(ss[hi].At-ss[lo].At)
			power[i] = ss[lo].Power + units.Watts(frac)*(ss[hi].Power-ss[lo].Power)
		}
	}

	var out []Sample
	for i, s := range ss {
		if i > 0 {
			a := ss[i-1]
			filled := false
			for at := a.At + interval; at < s.At-interval/2; at += interval {
				frac := float64(at-a.At) / float64(s.At-a.At)
				out = append(out, Sample{At: at, Power: power[i-1] + units.Watts(frac)*(power[i]-power[i-1])})
				rep.GapsFilled++
				filled = true
			}
			if filled {
				rep.Gaps++
			}
		}
		out = append(out, Sample{At: s.At, Power: power[i]})
	}
	return out, rep, nil
}
