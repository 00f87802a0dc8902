package cluster

import (
	"errors"
	"fmt"
	"math"
)

// WithFrequency returns a copy of the spec with every CPU clocked at
// factor × its nominal frequency, with dynamic power rescaled by the
// CMOS model P_dyn ∝ f·V² — and since voltage tracks frequency on a DVFS
// ladder, effectively P_dyn ∝ f^γ with γ ≈ 2.4 on real parts (pure
// theory says 3; leakage and fixed-voltage rails flatten it).
//
// This is the knob behind the "towards efficient supercomputing" line of
// work the paper builds on (Hsu & Feng, cited as [11]): running below
// nominal frequency trades performance for disproportionate power savings,
// and TGI makes the system-wide outcome of that trade a single number.
//
//greenvet:allow unusedexport -- a root benchmark or test uses it: bench_test.go
func WithFrequency(s *Spec, factor float64) (*Spec, error) {
	if s == nil {
		return nil, errors.New("cluster: nil spec")
	}
	if factor <= 0.2 || factor > 1.5 {
		return nil, fmt.Errorf("cluster: frequency factor %v outside (0.2, 1.5]", factor)
	}
	const gamma = 2.4
	out := *s // Spec contains no pointers or slices: value copy is deep
	out.Name = fmt.Sprintf("%s@%.0f%%", s.Name, factor*100)
	out.Node.CPU.ClockHz = s.Node.CPU.ClockHz * factor
	dyn := s.Node.CPU.MaxWatts - s.Node.CPU.IdleWatts
	out.Node.CPU.MaxWatts = s.Node.CPU.IdleWatts + dyn*math.Pow(factor, gamma)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}
