package series

import (
	"math"
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

// BenchmarkRepairerWarm repairs the same trace with one Repairer, as a
// sweep worker does from its second faulty cell on.
func BenchmarkRepairerWarm(b *testing.B) {
	tr := repairBenchTrace(b)
	var r Repairer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Repair(tr, 1, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// repairBenchTrace builds the benchmarks' trace.
func repairBenchTrace(b *testing.B) *Trace {
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
			b.Fatal(err)
		}
	}
	return tr
}
