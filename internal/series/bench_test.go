package series

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// BenchmarkRepair exercises the hot path of gap-tolerant metering: a
// 1 Hz hour-long trace with periodic glitches and dropped stretches.
func BenchmarkRepair(b *testing.B) {
	tr := repairBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Repair(1, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairerWarm repairs with one Repairer, as a sweep worker
// does from its second faulty cell on, writing the repaired trace
// (Repair) and folding it (RepairFold). The sine case repairs one
// hour-long trace whose second differences never tie. The meter case
// takes 16 faulty meter windows in turn (meterBenchTrace), whose second
// differences sit on a 0.05 W lattice, so most of them tie with others;
// the median's cost depends on those ties, and taking different windows
// in turn keeps the branch predictor from learning one window.
func BenchmarkRepairerWarm(b *testing.B) {
	windows := make([]*Trace, 16)
	for i := range windows {
		windows[i] = meterBenchTrace(b, int64(i+1))
	}
	for _, c := range []struct {
		name   string
		traces []*Trace
	}{
		{"sine", []*Trace{repairBenchTrace(b)}},
		{"meter", windows},
	} {
		b.Run(c.name+"/trace", func(b *testing.B) {
			var r Repairer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.Repair(c.traces[i%len(c.traces)], 1, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/fold", func(b *testing.B) {
			var r Repairer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.RepairFold(c.traces[i%len(c.traces)], 1, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// repairBenchTrace builds the benchmarks' hour-long trace.
func repairBenchTrace(tb testing.TB) *Trace {
	const n = 3600
	tr := New(n)
	at := units.Seconds(0)
	for i := 0; i < n; i++ {
		v := 250 + 0.2*math.Sin(float64(i))
		if i%97 == 0 {
			v += 120 // glitch spike
		}
		if i%53 == 0 && i > 0 && i < n-1 {
			at += 3 // dropped stretch: a 3 s hole in the 1 Hz stream
		} else {
			at += 1
		}
		if err := tr.Append(at, units.Watts(v)); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// meterBenchTrace builds a window the way a faulty Watts Up? PRO class
// meter reports it at 1 Hz, as the faulty sweep configures it: about
// 900 samples of a two-level load, with 0.5 W gauge noise, 2% glitches
// of 60 W, readings quantised to 0.1 W, and 5% of the inner samples
// dropped. seed picks the noise.
func meterBenchTrace(tb testing.TB, seed int64) *Trace {
	const n = 950
	rng := rand.New(rand.NewSource(seed))
	tr := New(n)
	for i := 0; i < n; i++ {
		v := 1480.0
		if i >= n/3 {
			v = 2130
		}
		v += 0.5 * rng.NormFloat64()
		if rng.Float64() < 0.02 {
			v += 60 * rng.NormFloat64()
		}
		v = math.Round(v/0.1) * 0.1
		if rng.Float64() < 0.05 && i > 0 && i < n-1 {
			continue
		}
		if err := tr.Append(units.Seconds(i), units.Watts(v)); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}
