package suite

import (
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// BenchmarkSweep runs the whole three-benchmark pipeline at one process
// count — the unit of work a campaign repeats per sweep point.
func BenchmarkSweep(b *testing.B) {
	spec := cluster.Testbed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(DefaultConfig(spec, 4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTraced is BenchmarkSweep under a live tracer; the delta
// between the two is the instrumentation overhead.
func BenchmarkSweepTraced(b *testing.B) {
	spec := cluster.Testbed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(spec, 4)
		cfg.Trace = obs.NewTracer()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeResults encodes an extended-suite SystemG result set of
// 768 cells (procs 1–768, the size of a benchmark-of-record sweep's
// file) with SaveJSON's encoder and with the json.MarshalIndent it
// replaced, without the file write.
func BenchmarkEncodeResults(b *testing.B) {
	spec := cluster.SystemG()
	axis := make([]int, 768)
	for i := range axis {
		axis[i] = i + 1
	}
	results, err := RunSweepPlan(SweepPlan{
		Axis: axis,
		Configure: func(p int) (Config, error) {
			cfg := DefaultConfig(spec, p)
			cfg.Benchmarks = ExtendedOrder
			return cfg, nil
		},
		Workers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := appendResults(make([]byte, 0, encodedSize(results)), results)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)))
		}
	})
	b.Run("MarshalIndent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)) + 1)
		}
	})
}
