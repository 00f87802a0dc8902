// Package core implements the paper's contribution: The Green Index (TGI),
// a single-number metric for the system-wide energy efficiency of an HPC
// system evaluated with a benchmark suite.
//
// The computation follows Section II of the paper exactly:
//
//  1. EE_i   = Performance_i / Power_i                       (Equation 2)
//  2. REE_i  = EE_i / EE_i(reference system)                 (Equation 3)
//  3. Choose weights W_i with Σ W_i = 1                      (Equation 4)
//  4. TGI    = Σ W_i · REE_i                                 (Equation 4)
//
// Weighting schemes from Section III are provided: the arithmetic mean
// (Equations 6-8) and weighted means using execution time, energy and power
// (Equations 10-15), plus fully custom weights. The per-benchmark
// efficiency metric is pluggable (Section II notes TGI works with "any
// other energy-efficient metric, such as the energy-delay product"), with
// performance-per-watt as the default and EDP provided.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
	"repro/internal/units"
)

// Measurement is one benchmark's observation on one system: the raw
// material of TGI. Performance is in the benchmark's own metric (GFLOPS for
// HPL, MB/s for STREAM and IOzone) — TGI's normalisation by a reference
// system makes the mixed units commensurable.
type Measurement struct {
	Benchmark   string        `json:"benchmark"`   // e.g. "HPL"
	Metric      string        `json:"metric"`      // e.g. "GFLOPS", unit label only
	Performance float64       `json:"performance"` // in Metric units
	Power       units.Watts   `json:"power"`       // mean wall power during the run
	Time        units.Seconds `json:"time"`        // execution time
	Energy      units.Joules  `json:"energy"`      // 0 means Power × Time
}

// Validate checks the measurement for usability in the TGI pipeline.
func (m Measurement) Validate() error {
	switch {
	case m.Benchmark == "":
		return errors.New("core: measurement without benchmark name")
	case m.Performance <= 0 || math.IsNaN(m.Performance) || math.IsInf(m.Performance, 0):
		return fmt.Errorf("core: %s: non-positive performance %v", m.Benchmark, m.Performance)
	case m.Power <= 0:
		return fmt.Errorf("core: %s: non-positive power %v", m.Benchmark, m.Power)
	case m.Time <= 0:
		return fmt.Errorf("core: %s: non-positive time %v", m.Benchmark, m.Time)
	case m.Energy < 0:
		return fmt.Errorf("core: %s: negative energy %v", m.Benchmark, m.Energy)
	}
	return nil
}

// EnergyJoules returns the measured energy, falling back to Power × Time
// when the meter reported only mean power.
func (m Measurement) EnergyJoules() units.Joules {
	if m.Energy > 0 {
		return m.Energy
	}
	return units.Energy(m.Power, m.Time)
}

// EEFunc maps a measurement to its energy-efficiency score (higher is
// better). TGI is agnostic to the choice (Section II).
type EEFunc func(Measurement) float64

// PerfPerWatt is Equation 2: performance divided by power, the metric used
// throughout the paper's evaluation.
func PerfPerWatt(m Measurement) float64 {
	return m.Performance / float64(m.Power)
}

// InverseEDP is an energy-delay-product-based efficiency: 1/(E·T), so that
// higher remains better and the ratio-to-reference structure of Equation 3
// is preserved.
//
//greenvet:allow unusedexport -- a root benchmark or test uses it: bench_test.go
func InverseEDP(m Measurement) float64 {
	return 1 / (float64(m.EnergyJoules()) * float64(m.Time))
}

// EE computes Equation 2 for a measurement after validating it.
func EE(m Measurement) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return PerfPerWatt(m), nil
}

// REE computes Equation 3: the system-under-test's efficiency relative to
// the reference system's on the same benchmark. Both measurements must be
// of the same benchmark and metric.
func REE(test, ref Measurement) (float64, error) {
	return REEWith(PerfPerWatt, test, ref)
}

// REEWith is REE under an alternative efficiency metric.
func REEWith(ee EEFunc, test, ref Measurement) (float64, error) {
	if ee == nil {
		return 0, errors.New("core: nil efficiency metric")
	}
	if err := test.Validate(); err != nil {
		return 0, err
	}
	if err := ref.Validate(); err != nil {
		return 0, fmt.Errorf("core: reference: %w", err)
	}
	if test.Benchmark != ref.Benchmark {
		return 0, fmt.Errorf("core: benchmark mismatch: %q vs reference %q", test.Benchmark, ref.Benchmark)
	}
	if test.Metric != ref.Metric {
		return 0, fmt.Errorf("core: %s: metric mismatch: %q vs reference %q", test.Benchmark, test.Metric, ref.Metric)
	}
	den := ee(ref)
	if den <= 0 || math.IsNaN(den) || math.IsInf(den, 0) {
		return 0, fmt.Errorf("core: %s: degenerate reference efficiency %v", ref.Benchmark, den)
	}
	return ee(test) / den, nil
}

// Scheme selects how the TGI weighting factors are assigned (Section III).
type Scheme int

// Weighting schemes.
const (
	// ArithmeticMean assigns equal weights (Equations 6-8).
	ArithmeticMean Scheme = iota
	// TimeWeighted uses W_i = t_i / Σt (Equation 10); the paper finds it
	// behaves like the arithmetic mean.
	TimeWeighted
	// EnergyWeighted uses W_i = e_i / Σe (Equation 11); the paper finds it
	// overweights the energy-hungry benchmark (HPL), an undesired property.
	EnergyWeighted
	// PowerWeighted uses W_i = p_i / Σp (Equation 12); same caveat.
	PowerWeighted
	// Custom uses caller-provided weights (e.g. a memory-heavy profile for
	// a memory-bound production workload, the paper's motivating example).
	Custom
)

func (s Scheme) String() string {
	switch s {
	case ArithmeticMean:
		return "arithmetic-mean"
	case TimeWeighted:
		return "time-weighted"
	case EnergyWeighted:
		return "energy-weighted"
	case PowerWeighted:
		return "power-weighted"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme name, case-insensitively: the String form
// ("time-weighted") or its short alias ("time"; "am" and "arithmetic" for
// the arithmetic mean).
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "arithmetic-mean", "am", "arithmetic":
		return ArithmeticMean, nil
	case "time-weighted", "time":
		return TimeWeighted, nil
	case "energy-weighted", "energy":
		return EnergyWeighted, nil
	case "power-weighted", "power":
		return PowerWeighted, nil
	case "custom":
		return Custom, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want am, time, energy, power or custom)", name)
	}
}

// Weights derives the normalised weighting factors for the measurements
// under the scheme. For Custom, the provided weights are validated
// (non-negative, matching length) and normalised to sum to one.
func Weights(s Scheme, ms []Measurement, custom []float64) ([]float64, error) {
	if len(ms) == 0 {
		return nil, errors.New("core: no measurements")
	}
	raw := make([]float64, len(ms))
	switch s {
	case ArithmeticMean:
		for i := range raw {
			raw[i] = 1
		}
	case TimeWeighted:
		for i, m := range ms {
			raw[i] = float64(m.Time)
		}
	case EnergyWeighted:
		for i, m := range ms {
			raw[i] = float64(m.EnergyJoules())
		}
	case PowerWeighted:
		for i, m := range ms {
			raw[i] = float64(m.Power)
		}
	case Custom:
		if len(custom) != len(ms) {
			return nil, fmt.Errorf("core: %d custom weights for %d measurements", len(custom), len(ms))
		}
		copy(raw, custom)
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", s)
	}
	ws, err := stats.Normalize(raw)
	if err != nil {
		return nil, fmt.Errorf("core: %v weights: %w", s, err)
	}
	return ws, nil
}

// Components carries the per-benchmark breakdown behind a TGI value, for
// reporting and for the correlation analysis of Section IV.
type Components struct {
	Benchmarks []string
	EE         []float64 // Equation 2 per benchmark
	RefEE      []float64
	REE        []float64 // Equation 3 per benchmark
	Weights    []float64 // normalised
	TGI        float64   // Equation 4
	Scheme     Scheme
	// Degraded marks a partial-suite evaluation: the TGI covers only the
	// benchmarks listed in Benchmarks, with weights renormalised over the
	// survivors; Missing names the benchmarks it no longer covers.
	Degraded bool
	Missing  []string
}

// Compute evaluates TGI for a suite of measurements against the reference
// system's measurements, using the default performance-per-watt metric.
// Reference measurements are matched to test measurements by benchmark
// name; every test benchmark must have a reference.
func Compute(test, ref []Measurement, s Scheme, custom []float64) (*Components, error) {
	return ComputeWith(PerfPerWatt, test, ref, s, custom)
}

// ComputeWith is Compute under an alternative efficiency metric.
func ComputeWith(ee EEFunc, test, ref []Measurement, s Scheme, custom []float64) (*Components, error) {
	if len(test) == 0 {
		return nil, errors.New("core: no measurements")
	}
	refBy := make(map[string]Measurement, len(ref))
	for _, r := range ref {
		if _, dup := refBy[r.Benchmark]; dup {
			return nil, fmt.Errorf("core: duplicate reference for %q", r.Benchmark)
		}
		refBy[r.Benchmark] = r
	}
	seen := make(map[string]bool, len(test))
	c := &Components{Scheme: s}
	for _, m := range test {
		if seen[m.Benchmark] {
			return nil, fmt.Errorf("core: duplicate measurement for %q", m.Benchmark)
		}
		seen[m.Benchmark] = true
		r, ok := refBy[m.Benchmark]
		if !ok {
			return nil, fmt.Errorf("core: no reference measurement for %q", m.Benchmark)
		}
		ree, err := REEWith(ee, m, r)
		if err != nil {
			return nil, err
		}
		c.Benchmarks = append(c.Benchmarks, m.Benchmark)
		c.EE = append(c.EE, ee(m))
		c.RefEE = append(c.RefEE, ee(r))
		c.REE = append(c.REE, ree)
	}
	ws, err := Weights(s, test, custom)
	if err != nil {
		return nil, err
	}
	c.Weights = ws
	for i, ree := range c.REE {
		c.TGI += ws[i] * ree
	}
	return c, nil
}
