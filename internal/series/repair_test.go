package series

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/units"
)

// flatTrace builds an n-sample 1 Hz trace at constant power with a little
// deterministic ripple so the robust noise estimate is nonzero.
func flatTrace(t *testing.T, n int, base float64) *Trace {
	t.Helper()
	tr := New(n)
	for i := 0; i < n; i++ {
		ripple := 0.2 * math.Sin(float64(i))
		if err := tr.Append(units.Seconds(i), units.Watts(base+ripple)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestRepairRejectsGlitch(t *testing.T) {
	tr := flatTrace(t, 60, 250)
	// Inject a 80 W spike at sample 30 — far outside the 0.2 W ripple.
	tr.samples[30].Power += 80
	out, rep, err := tr.Repair(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutliersRejected != 1 {
		t.Errorf("OutliersRejected = %d, want 1", rep.OutliersRejected)
	}
	if rep.GapsFilled != 0 {
		t.Errorf("GapsFilled = %d, want 0", rep.GapsFilled)
	}
	got := float64(out.At(30).Power)
	want := 0.5 * float64(tr.At(29).Power+tr.At(31).Power)
	if math.Abs(got-want) > 0.5 {
		t.Errorf("repaired sample = %v, want ≈%v", got, want)
	}
	if out.Len() != tr.Len() {
		t.Errorf("repair changed sample count: %d vs %d", out.Len(), tr.Len())
	}
}

func TestRepairPreservesLoadStep(t *testing.T) {
	// A genuine load step: 200 W for 30 s, then 300 W for 30 s. The step
	// samples disagree with one neighbour but agree with the other — the
	// neighbour-agreement test must leave them alone.
	tr := New(60)
	for i := 0; i < 60; i++ {
		p := 200.0
		if i >= 30 {
			p = 300
		}
		p += 0.2 * math.Sin(float64(i))
		if err := tr.Append(units.Seconds(i), units.Watts(p)); err != nil {
			t.Fatal(err)
		}
	}
	out, rep, err := tr.Repair(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutliersRejected != 0 {
		t.Errorf("load step flagged as %d outlier(s)", rep.OutliersRejected)
	}
	for i := 0; i < out.Len(); i++ {
		if out.At(i).Power != tr.At(i).Power {
			t.Fatalf("sample %d changed: %v -> %v", i, tr.At(i).Power, out.At(i).Power)
		}
	}
}

func TestRepairFillsGaps(t *testing.T) {
	tr := flatTrace(t, 60, 250)
	// Drop three samples: one isolated, two adjacent.
	holed := New(tr.Len())
	for i, s := range tr.Samples() {
		if i != 10 && i != 40 && i != 41 {
			holed.samples = append(holed.samples, s)
		}
	}
	out, rep, err := holed.Repair(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GapsFilled != 3 {
		t.Errorf("GapsFilled = %d, want 3", rep.GapsFilled)
	}
	if out.Len() != tr.Len() {
		t.Errorf("repaired length %d, want %d", out.Len(), tr.Len())
	}
	// The filled samples sit on the meter cadence and interpolate their
	// neighbours.
	for i := 0; i < out.Len(); i++ {
		if out.At(i).At != units.Seconds(i) {
			t.Fatalf("sample %d at t=%v, want %v", i, out.At(i).At, units.Seconds(i))
		}
	}
	filled := float64(out.At(10).Power)
	want := 0.5 * float64(tr.At(9).Power+tr.At(11).Power)
	if math.Abs(filled-want) > 1e-9 {
		t.Errorf("filled sample = %v, want %v", filled, want)
	}
}

// TestRepairRejectsEndGlitches spikes a trace's first and last samples:
// each has one neighbour, which agrees with the next sample in, so both
// are rejected. Each takes its clean neighbour's power and keeps its
// timestamp, so the trace still spans its window.
func TestRepairRejectsEndGlitches(t *testing.T) {
	tr := flatTrace(t, 20, 250)
	tr.samples[0].Power = 1000
	tr.samples[19].Power = 0
	out, rep, err := tr.Repair(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutliersRejected != 2 || out.Len() != tr.Len() {
		t.Fatalf("%d samples, report %+v; want %d samples and 2 outliers", out.Len(), rep, tr.Len())
	}
	if got, want := out.At(0), (Sample{At: 0, Power: tr.At(1).Power}); got != want {
		t.Errorf("first sample = %v, want %v", got, want)
	}
	if got, want := out.At(19), (Sample{At: 19, Power: tr.At(18).Power}); got != want {
		t.Errorf("last sample = %v, want %v", got, want)
	}
	for i := 1; i < 19; i++ {
		if out.At(i) != tr.At(i) {
			t.Fatalf("inner sample %d changed: %v -> %v", i, tr.At(i), out.At(i))
		}
	}
}

// TestRepairKeepsEndSteps starts and ends a trace on a ramp: each end is
// far from its neighbour, but that neighbour disagrees with the sample
// beyond it at least as much, so the one-sided test keeps both ends.
func TestRepairKeepsEndSteps(t *testing.T) {
	tr := flatTrace(t, 20, 250)
	tr.samples[0].Power, tr.samples[1].Power = 50, 150
	tr.samples[18].Power, tr.samples[19].Power = 400, 550
	out, rep, err := tr.Repair(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 19} {
		if out.At(i) != tr.At(i) {
			t.Errorf("end sample %d changed: %v -> %v (report %+v)", i, tr.At(i), out.At(i), rep)
		}
	}
}

func TestRepairCleanTraceIsIdentity(t *testing.T) {
	tr := flatTrace(t, 60, 250)
	out, rep, err := tr.Repair(1, 0) // sigma 0 -> default 6
	if err != nil {
		t.Fatal(err)
	}
	if rep.GapsFilled != 0 || rep.OutliersRejected != 0 {
		t.Errorf("clean trace repaired: %+v", rep)
	}
	for i := 0; i < tr.Len(); i++ {
		if out.At(i) != tr.At(i) {
			t.Fatalf("sample %d changed", i)
		}
	}
}

func TestRepairEdgeCases(t *testing.T) {
	if _, _, err := flatTrace(t, 10, 250).Repair(0, 6); err == nil {
		t.Error("non-positive interval accepted")
	}
	if _, _, err := flatTrace(t, 10, 250).Repair(units.Seconds(math.NaN()), 6); err == nil {
		t.Error("NaN interval accepted")
	}
	// A hole wider than maxFill intervals, or one the interval cannot
	// step across at its timestamps' magnitude, is refused, not filled.
	wide := flatTrace(t, 10, 250)
	wide.samples[9].At = maxFill + 10
	if _, _, err := wide.Repair(1, 6); err == nil {
		t.Error("hole of more than maxFill samples accepted")
	}
	far := mustTrace(t, 1e17, 250, 1e17+64, 250, 1e17+128, 250)
	if _, _, err := far.Repair(1, 6); err == nil {
		t.Error("hole the interval cannot step across accepted")
	}
	// Tiny traces come back unchanged.
	tiny := flatTrace(t, 2, 250)
	out, rep, err := tiny.Repair(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || rep.GapsFilled != 0 || rep.OutliersRejected != 0 {
		t.Errorf("tiny trace mangled: len %d, report %+v", out.Len(), rep)
	}
}

// medianOf is median over the keys of xs.
func medianOf(xs []float64) float64 {
	keys := make([]uint64, len(xs))
	for i, x := range xs {
		keys[i] = sortKey(x)
	}
	return median(keys)
}

// TestMedianMatchesSort checks the selection median against sorting a
// copy and reading the middle, on random slices drawn from a small pool
// so duplicates, ±0, ±Inf and NaN (which sorts first) all recur.
func TestMedianMatchesSort(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, 1, 2.5, -3}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(80)
		if trial%10 == 0 {
			n = rng.Intn(2000)
		}
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(3) == 0 {
				xs[i] = pool[rng.Intn(len(pool))]
			} else {
				xs[i] = math.Round(rng.NormFloat64()*8) / 4
			}
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		want := 0.0
		if mid := n / 2; n%2 == 1 {
			want = sorted[mid]
		} else if n > 0 {
			want = 0.5 * (sorted[mid-1] + sorted[mid])
		}
		// ±0 compare equal, as sorting leaves their order unspecified.
		if got := medianOf(xs); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: median of %v = %v, sorted median %v", trial, sorted, got, want)
		}
	}
}

// TestRepairMatchesReference repairs a faulty meter window and an
// hour-long trace with glitches and holes: Repair must give
// referenceRepair's samples and report, and RepairFold the Fold of
// Repair's trace, bit for bit, on a fresh and on a reused Repairer.
func TestRepairMatchesReference(t *testing.T) {
	var reused Repairer
	for _, tr := range []*Trace{meterBenchTrace(t, 1), meterBenchTrace(t, 2), repairBenchTrace(t)} {
		want, wantRep, err := referenceRepair(tr, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Repairer{new(Repairer), &reused} {
			out, rep, err := r.Repair(tr, 1, 6)
			if err != nil {
				t.Fatal(err)
			}
			if rep != wantRep {
				t.Fatalf("report %+v, reference %+v", rep, wantRep)
			}
			checkSamples(t, "Repair", out.Samples(), want)
			fold := out.Fold()
			got, foldRep, err := r.RepairFold(tr, 1, 6)
			if err != nil {
				t.Fatal(err)
			}
			if foldRep != rep {
				t.Fatalf("RepairFold report %+v, Repair %+v", foldRep, rep)
			}
			checkFold(t, "RepairFold", got, fold)
		}
		if wantRep.GapsFilled == 0 || wantRep.OutliersRejected == 0 {
			t.Fatalf("trace needs no repair (%+v), so it tests nothing", wantRep)
		}
	}
}
