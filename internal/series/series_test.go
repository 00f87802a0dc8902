package series

import (
	"testing"

	"repro/internal/units"
)

func mustTrace(t *testing.T, pts ...float64) *Trace {
	t.Helper()
	if len(pts)%2 != 0 {
		t.Fatal("mustTrace needs (time, power) pairs")
	}
	tr := New(len(pts) / 2)
	for i := 0; i < len(pts); i += 2 {
		if err := tr.Append(units.Seconds(pts[i]), units.Watts(pts[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestAppendOrdering(t *testing.T) {
	tr := New(2)
	if err := tr.Append(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(0.5, 100); err == nil {
		t.Error("out-of-order append accepted")
	}
	// Equal timestamps are allowed (duplicate sample).
	if err := tr.Append(1, 120); err != nil {
		t.Errorf("equal-time append rejected: %v", err)
	}
}

func TestEnergyConstantPower(t *testing.T) {
	tr := mustTrace(t, 0, 100, 10, 100)
	e, err := tr.Energy()
	if err != nil || e != 1000 {
		t.Errorf("Energy = %v, %v; want 1000 J", e, err)
	}
}

func TestEnergyRamp(t *testing.T) {
	// Linear ramp 0→100 W over 10 s integrates to 500 J.
	tr := mustTrace(t, 0, 0, 10, 100)
	e, err := tr.Energy()
	if err != nil || e != 500 {
		t.Errorf("Energy = %v, %v; want 500 J", e, err)
	}
}

func TestEnergyTooFew(t *testing.T) {
	tr := mustTrace(t, 0, 100)
	if _, err := tr.Energy(); err != ErrTooFew {
		t.Errorf("Energy on 1 sample err = %v", err)
	}
}

func TestMeanAndPeakPower(t *testing.T) {
	tr := mustTrace(t, 0, 100, 5, 100, 10, 200)
	m, err := tr.MeanPower()
	if err != nil {
		t.Fatal(err)
	}
	// 5s at 100W + 5s ramp 100→200 (avg 150) = (500+750)/10 = 125 W.
	if m != 125 {
		t.Errorf("MeanPower = %v, want 125", m)
	}
	p, _ := tr.PeakPower()
	if p != 200 {
		t.Errorf("PeakPower = %v, want 200", p)
	}
}
