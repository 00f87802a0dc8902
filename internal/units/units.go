// Package units provides typed physical quantities used throughout the
// green-index toolkit: power (watts), energy (joules), time (seconds),
// computation rates (FLOPS) and data rates (bytes/second).
//
// The types are thin float64 wrappers. They exist to make API signatures
// self-documenting and to catch unit mix-ups at compile time, not to be a
// general dimensional-analysis system. Arithmetic that crosses dimensions
// (power × time = energy, and so on) is provided only where the toolkit
// actually needs it.
package units

import (
	"fmt"
	"time"
)

// Watts is electrical power in watts.
type Watts float64

// Joules is energy in joules.
type Joules float64

// Seconds is a duration in seconds.
type Seconds float64

// FLOPS is a floating-point computation rate in operations per second.
type FLOPS float64

// BytesPerSec is a data-movement rate in bytes per second.
type BytesPerSec float64

// Bytes is a data size in bytes.
type Bytes float64

// Common scale factors.
const (
	Kilo = 1e3
	Mega = 1e6
	Giga = 1e9
	Tera = 1e12
	Peta = 1e15
)

// Energy returns the energy consumed by drawing power p for duration d,
// assuming constant draw.
func Energy(p Watts, d Seconds) Joules { return Joules(float64(p) * float64(d)) }

// MeanPower returns the constant power that would consume energy e over
// duration d. It returns 0 for non-positive durations.
func MeanPower(e Joules, d Seconds) Watts {
	if d <= 0 {
		return 0
	}
	return Watts(float64(e) / float64(d))
}

// FromDuration converts a time.Duration to Seconds.
func FromDuration(d time.Duration) Seconds { return Seconds(d.Seconds()) }

// siPrefixes maps exponent/3 to the SI prefix used when formatting.
var siPrefixes = []struct {
	factor float64
	prefix string
}{
	{Peta, "P"},
	{Tera, "T"},
	{Giga, "G"},
	{Mega, "M"},
	{Kilo, "K"},
	{1, ""},
	{1e-3, "m"},
	{1e-6, "u"},
}

// formatSI renders v with an SI prefix and the given unit suffix, using
// three significant digits (e.g. "8.10 TFLOPS", "22.9 KW").
func formatSI(v float64, unit string) string {
	if v == 0 {
		return "0 " + unit
	}
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	for _, p := range siPrefixes {
		if v >= p.factor {
			return fmt.Sprintf("%s%.4g %s%s", sign, v/p.factor, p.prefix, unit)
		}
	}
	last := siPrefixes[len(siPrefixes)-1]
	return fmt.Sprintf("%s%.4g %s%s", sign, v/last.factor, last.prefix, unit)
}

// String renders the power with an SI prefix, e.g. "22.9 KW".
func (w Watts) String() string { return formatSI(float64(w), "W") }

// String renders the energy with an SI prefix, e.g. "1.21 GJ".
func (j Joules) String() string { return formatSI(float64(j), "J") }

// String renders the rate with an SI prefix, e.g. "90 GFLOPS".
func (f FLOPS) String() string { return formatSI(float64(f), "FLOPS") }

// String renders the rate with an SI prefix, e.g. "12.8 GB/s".
func (b BytesPerSec) String() string { return formatSI(float64(b), "B/s") }

// String renders the size with an SI prefix, e.g. "32 GB".
func (b Bytes) String() string { return formatSI(float64(b), "B") }

// String renders the duration, e.g. "312.5 s".
func (s Seconds) String() string { return fmt.Sprintf("%.4g s", float64(s)) }
