package series

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/units"
)

// FuzzRepair repairs arbitrary ordered traces. Each three bytes of data
// make one sample: a time step of byte/4 seconds after the previous
// sample (the first sample sits at start) and a power of int16/8 watts.
// start, interval and sigma are free, so NaN, infinite and huge values
// reach Repair too. Repair must either refuse the trace or return one
// that keeps its first and last timestamps, gives a rejected end the
// power of some input sample, never steps back in time, has exactly
// n + GapsFilled samples, and equals referenceRepair's samples and
// report bit for bit. RepairFold must make the same decision and report,
// and a fold equal bit for bit to the Fold of Repair's trace. A Repairer
// that has just repaired a longer and a shorter trace must return the
// same samples, fold and report as a fresh one, so no stale scratch
// leaks into a later repair.
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
			for _, end := range [][2]Sample{{tr.At(0), out.At(0)}, {tr.At(n - 1), out.At(out.Len() - 1)}} {
				in, got := end[0], end[1]
				if !sameSample(got, in) && !(sameTime(got, in) && hasPower(tr, got.Power)) {
					t.Fatalf("end sample %v became %v, not a sample at its time with another sample's power", in, got)
				}
			}
		}
		for i := 1; i < out.Len(); i++ {
			if out.At(i).At < out.At(i-1).At {
				t.Fatalf("sample %d at %v steps back from %v", i, out.At(i).At, out.At(i-1).At)
			}
		}

		want, wantRep, err := referenceRepair(tr, units.Seconds(interval), sigma)
		if err != nil {
			t.Fatalf("reference refused a trace Repair accepted: %v", err)
		}
		if wantRep != rep {
			t.Fatalf("report %+v, reference %+v", rep, wantRep)
		}
		checkSamples(t, "Repair", out.Samples(), want)

		fold, foldRep, err := new(Repairer).RepairFold(tr, units.Seconds(interval), sigma)
		if err != nil {
			t.Fatalf("RepairFold refused a trace Repair accepted: %v", err)
		}
		if foldRep != rep {
			t.Fatalf("RepairFold: %+v; Repair: %+v", foldRep, rep)
		}
		checkFold(t, "RepairFold", fold, out.Fold())

		var r Repairer
		for _, warm := range []*Trace{fuzzTrace(t, bytes.Repeat(data, 2), start), fuzzTrace(t, data[:len(data)/2], start)} {
			_, _, _ = r.Repair(warm, units.Seconds(interval), sigma)
		}
		reused, reusedRep, err := r.Repair(tr, units.Seconds(interval), sigma)
		if err != nil {
			t.Fatalf("reused Repairer refused a trace Trace.Repair accepted: %v", err)
		}
		if reusedRep != rep {
			t.Fatalf("reused Repairer: %+v; fresh: %+v", reusedRep, rep)
		}
		checkSamples(t, "reused Repairer", reused.Samples(), want)
		for _, warm := range []*Trace{fuzzTrace(t, bytes.Repeat(data, 2), start), fuzzTrace(t, data[:len(data)/2], start)} {
			_, _, _ = r.RepairFold(warm, units.Seconds(interval), sigma)
		}
		fold, foldRep, err = r.RepairFold(tr, units.Seconds(interval), sigma)
		if err != nil {
			t.Fatalf("reused RepairFold refused a trace Trace.Repair accepted: %v", err)
		}
		if foldRep != rep {
			t.Fatalf("reused RepairFold: %+v; Repair: %+v", foldRep, rep)
		}
		checkFold(t, "reused RepairFold", fold, out.Fold())
	})
}

// checkSamples fails t unless got equals want bit for bit.
func checkSamples(t *testing.T, what string, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameSample(got[i], want[i]) {
			t.Fatalf("%s: sample %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// checkFold fails t unless got equals want bit for bit: count, first and
// last sample, peak and energy.
func checkFold(t *testing.T, what string, got, want Fold) {
	t.Helper()
	bits := math.Float64bits
	if got.n != want.n || !sameSample(got.first, want.first) || !sameSample(got.run.last, want.run.last) ||
		bits(float64(got.run.peak)) != bits(float64(want.run.peak)) || bits(got.run.energy) != bits(want.run.energy) {
		t.Fatalf("%s: fold %+v, want %+v", what, got, want)
	}
}

// FuzzMedian holds the radix selection to sorting. Each nine bytes of
// data make one run of ties: a repeat count of 1 to 256 and a value's
// raw float64 bits, so NaN of either sign and any payload, ±0, ±Inf and
// subnormals all arrive, as do long runs of one value. The keys' sorted
// order must be the order sort.Float64s gives (NaN first, and a key
// decodes to its value bit for bit), selectKey must return the sorted
// keys at the middle and just below it, and median must equal the
// middle of a sort.Float64s copy, or the mean of the two middle values.
func FuzzMedian(f *testing.F) {
	run := func(count byte, x float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{count}, math.Float64bits(x))
	}
	negNaN := math.Float64frombits(1<<63 | 0x7ff0000000000001)
	f.Add(slices.Concat(run(0, math.NaN()), run(0, negNaN), run(0, 1), run(0, 2)))
	f.Add(slices.Concat(run(2, math.Copysign(0, -1)), run(1, 0), run(0, math.Inf(-1)), run(0, math.Inf(1))))
	f.Add(slices.Concat(run(0, 5e-324), run(0, -5e-324), run(0, 2.2250738585072009e-308), run(1, -1e300)))
	f.Add(slices.Concat(run(200, 0.45), run(100, 0.4500000000000001), run(150, 0.44999999999999996), run(99, 0.5)))
	f.Add(slices.Concat(run(3, 0.05), run(0, negNaN), run(4, 0.1)))
	// A sample window wider than half the key space: the first round's
	// buckets are 2^57 keys wide.
	f.Add(slices.Concat(run(29, fromKey(1<<57+1)), run(33, math.Inf(1))))
	f.Add(run(0, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		for i := 0; i+9 <= len(data) && len(xs) < 1<<14; i += 9 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:]))
			for range int(data[i]) + 1 {
				xs = append(xs, x)
			}
		}
		keys := make([]uint64, len(xs))
		for i, x := range xs {
			keys[i] = sortKey(x)
			if back := fromKey(keys[i]); math.Float64bits(back) != math.Float64bits(x) && !(math.IsNaN(x) && math.IsNaN(back)) {
				t.Fatalf("key of %v (%#x) decodes to %v (%#x)", x, math.Float64bits(x), back, math.Float64bits(back))
			}
		}
		sortedKeys := slices.Clone(keys)
		slices.Sort(sortedKeys)
		inKeyOrder := make([]float64, len(sortedKeys))
		for i, k := range sortedKeys {
			inKeyOrder[i] = fromKey(k)
		}
		if !sort.Float64sAreSorted(inKeyOrder) {
			t.Fatalf("key order %v is not sort.Float64s order", inKeyOrder)
		}

		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		want := 0.0
		if n := len(xs); n > 0 {
			mid := n / 2
			at, below := selectKey(slices.Clone(keys), mid)
			if at != sortedKeys[mid] || mid > 0 && below != sortedKeys[mid-1] {
				t.Fatalf("selectKey(%d) = %#x, %#x; sorted keys have %#x there", mid, at, below, sortedKeys[mid])
			}
			want = sorted[mid]
			if n%2 == 0 {
				want = 0.5 * (sorted[mid-1] + sorted[mid])
			}
		}
		// sort.Float64s leaves the order of -0 and +0 unspecified, so
		// they compare equal here.
		if got := median(keys); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("median of %v = %v, sorted median %v", sorted, got, want)
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
// sameTime reports whether a and b have bit-identical timestamps.
func sameTime(a, b Sample) bool {
	return math.Float64bits(float64(a.At)) == math.Float64bits(float64(b.At))
}

// hasPower reports whether some sample of tr has power p, bit for bit.
func hasPower(tr *Trace, p units.Watts) bool {
	for _, s := range tr.Samples() {
		if math.Float64bits(float64(s.Power)) == math.Float64bits(float64(p)) {
			return true
		}
	}
	return false
}

func sameSample(a, b Sample) bool {
	return math.Float64bits(float64(a.At)) == math.Float64bits(float64(b.At)) &&
		math.Float64bits(float64(a.Power)) == math.Float64bits(float64(b.Power))
}
