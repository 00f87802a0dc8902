package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEnergy(t *testing.T) {
	cases := []struct {
		p    Watts
		d    Seconds
		want Joules
	}{
		{100, 10, 1000},
		{0, 100, 0},
		{2500, 0.5, 1250},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := Energy(c.p, c.d); got != c.want {
			t.Errorf("Energy(%v, %v) = %v, want %v", c.p, c.d, got, c.want)
		}
	}
}

func TestMeanPower(t *testing.T) {
	if got := MeanPower(1000, 10); got != 100 {
		t.Errorf("MeanPower(1000, 10) = %v, want 100", got)
	}
	if got := MeanPower(1000, 0); got != 0 {
		t.Errorf("MeanPower with zero duration = %v, want 0", got)
	}
	if got := MeanPower(1000, -5); got != 0 {
		t.Errorf("MeanPower with negative duration = %v, want 0", got)
	}
}

func TestEnergyMeanPowerRoundTrip(t *testing.T) {
	f := func(p float64, d float64) bool {
		p = math.Abs(math.Mod(p, 1e6))
		d = math.Abs(math.Mod(d, 1e6)) + 1e-3
		e := Energy(Watts(p), Seconds(d))
		back := MeanPower(e, Seconds(d))
		return math.Abs(float64(back)-p) <= 1e-9*(1+p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSecondsDuration(t *testing.T) {
	if got := FromDuration(2500 * time.Millisecond); got != 2.5 {
		t.Errorf("FromDuration = %v, want 2.5", got)
	}
}

func TestStringFormatting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Watts(22900).String(), "22.9 KW"},
		{Watts(450).String(), "450 W"},
		{Watts(0).String(), "0 W"},
		{Watts(-1500).String(), "-1.5 KW"},
		{FLOPS(8.1e12).String(), "8.1 TFLOPS"},
		{FLOPS(90e9).String(), "90 GFLOPS"},
		{BytesPerSec(1.1e9).String(), "1.1 GB/s"},
		{Bytes(32e9).String(), "32 GB"},
		{Joules(1.21e9).String(), "1.21 GJ"},
		{Watts(0.05).String(), "50 mW"},
		{Watts(2e-5).String(), "20 uW"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
