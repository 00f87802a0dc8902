package series

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/units"
)

// FuzzRepair repairs arbitrary ordered traces. Each three bytes of data
// make one sample: a time step of byte/4 seconds after the previous
// sample (the first sample sits at start) and a power of int16/8 watts.
// start, interval and sigma are free, so NaN, infinite and huge values
// reach Repair too. Repair must either refuse the trace or return one
// that keeps its first and last samples, never steps back in time and
// has exactly n + GapsFilled samples. A Repairer that has just repaired a
// longer and a shorter trace must return the same samples and report as
// a fresh Trace.Repair, so no stale scratch leaks into a later repair.
//
// The committed corpus (testdata/fuzz/FuzzRepair) holds a clean ripple,
// holes, glitches, a load step, a trace too short to repair, NaN and
// huge start times, and tiny, infinite, NaN and negative intervals.
func FuzzRepair(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, start, interval, sigma float64) {
		tr := fuzzTrace(t, data, start)
		out, rep, err := tr.Repair(units.Seconds(interval), sigma)
		if err != nil {
			return
		}
		n := tr.Len()
		if out.Len() != n+rep.GapsFilled {
			t.Fatalf("repaired trace has %d samples, want %d + %d filled", out.Len(), n, rep.GapsFilled)
		}
		if rep.Gaps > rep.GapsFilled || (rep.Gaps == 0) != (rep.GapsFilled == 0) {
			t.Fatalf("%d gaps for %d filled samples", rep.Gaps, rep.GapsFilled)
		}
		if n > 0 {
			if !sameSample(out.At(0), tr.At(0)) || !sameSample(out.At(out.Len()-1), tr.At(n-1)) {
				t.Fatalf("boundary samples moved: %v…%v became %v…%v",
					tr.At(0), tr.At(n-1), out.At(0), out.At(out.Len()-1))
			}
		}
		for i := 1; i < out.Len(); i++ {
			if out.At(i).At < out.At(i-1).At {
				t.Fatalf("sample %d at %v steps back from %v", i, out.At(i).At, out.At(i-1).At)
			}
		}

		var r Repairer
		for _, warm := range []*Trace{fuzzTrace(t, bytes.Repeat(data, 2), start), fuzzTrace(t, data[:len(data)/2], start)} {
			_, _, _ = r.Repair(warm, units.Seconds(interval), sigma)
		}
		reused, reusedRep, err := r.Repair(tr, units.Seconds(interval), sigma)
		if err != nil {
			t.Fatalf("reused Repairer refused a trace Trace.Repair accepted: %v", err)
		}
		if reusedRep != rep || reused.Len() != out.Len() {
			t.Fatalf("reused Repairer: %d samples, %+v; fresh: %d samples, %+v",
				reused.Len(), reusedRep, out.Len(), rep)
		}
		for i := 0; i < out.Len(); i++ {
			if !sameSample(reused.At(i), out.At(i)) {
				t.Fatalf("reused Repairer: sample %d is %v, fresh gives %v", i, reused.At(i), out.At(i))
			}
		}
	})
}

// fuzzTrace decodes FuzzRepair's sample bytes into an ordered trace.
func fuzzTrace(t *testing.T, data []byte, start float64) *Trace {
	tr := New(len(data) / 3)
	at := units.Seconds(start)
	for i := 0; i+3 <= len(data); i += 3 {
		if i > 0 {
			at += units.Seconds(data[i]) / 4
		}
		p := units.Watts(int16(uint16(data[i+1])<<8|uint16(data[i+2]))) / 8
		if err := tr.Append(at, p); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// sameSample compares two samples bit for bit, so NaN equals itself.
func sameSample(a, b Sample) bool {
	return math.Float64bits(float64(a.At)) == math.Float64bits(float64(b.At)) &&
		math.Float64bits(float64(a.Power)) == math.Float64bits(float64(b.Power))
}
