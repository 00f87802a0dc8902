package suite

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
)

func TestRunExtendedSevenBenchmarks(t *testing.T) {
	res, err := RunExtendedOn(cluster.Fire(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 7 {
		t.Fatalf("got %d runs, want 7", len(res.Runs))
	}
	for i, name := range ExtendedOrder {
		m := res.Runs[i].Measurement
		if m.Benchmark != name {
			t.Errorf("run %d = %q, want %q", i, m.Benchmark, name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunExtendedMetricLabels(t *testing.T) {
	res, err := RunExtendedOn(cluster.Fire(), 64)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		BenchHPL:           "GFLOPS",
		bench.DGEMM:        "GFLOPS",
		BenchSTREAM:        "MBPS",
		bench.PTRANS:       "MBPS",
		bench.RandomAccess: "GUPS",
		bench.FFT:          "GFLOPS",
		BenchIOzone:        "MBPS",
	}
	for _, b := range res.Runs {
		if got := b.Measurement.Metric; got != want[b.Measurement.Benchmark] {
			t.Errorf("%s metric = %q, want %q", b.Measurement.Benchmark, got, want[b.Measurement.Benchmark])
		}
	}
}

func TestRunExtendedOrderingConsistency(t *testing.T) {
	// DGEMM must outperform HPL (no comm/pivoting); FFT must be far below
	// both on the same machine.
	res, err := RunExtendedOn(cluster.Fire(), 128)
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string]float64{}
	for _, b := range res.Runs {
		perf[b.Measurement.Benchmark] = b.Measurement.Performance
	}
	if perf[bench.DGEMM] <= perf[BenchHPL] {
		t.Errorf("DGEMM %v not above HPL %v", perf[bench.DGEMM], perf[BenchHPL])
	}
	if perf[bench.FFT] >= perf[BenchHPL]/2 {
		t.Errorf("FFT %v implausibly close to HPL %v", perf[bench.FFT], perf[BenchHPL])
	}
}

func TestExtendedTGI(t *testing.T) {
	ref, err := RunExtendedOn(cluster.SystemG(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	test, err := RunExtendedOn(cluster.Fire(), 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Scheme{core.ArithmeticMean, core.TimeWeighted,
		core.EnergyWeighted, core.PowerWeighted} {
		c, err := core.Compute(test.Measurements(), ref.Measurements(), s, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if c.TGI <= 0 || math.IsNaN(c.TGI) {
			t.Errorf("%v: TGI = %v", s, c.TGI)
		}
		if len(c.Benchmarks) != 7 {
			t.Errorf("%v: %d components", s, len(c.Benchmarks))
		}
	}
	// Anchor: reference against itself is 1 with seven components too.
	c, err := core.Compute(ref.Measurements(), ref.Measurements(), core.ArithmeticMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.TGI-1) > 1e-9 {
		t.Errorf("extended self-TGI = %v", c.TGI)
	}
}

func TestRunExtendedDeterministic(t *testing.T) {
	a, err := RunExtendedOn(cluster.Fire(), 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExtendedOn(cluster.Fire(), 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].Measurement != b.Runs[i].Measurement {
			t.Errorf("run %d not deterministic", i)
		}
	}
}
