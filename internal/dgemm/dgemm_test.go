package dgemm

import (
	"testing"

	"repro/internal/cluster"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Run(Config{N: 1 << 20}); err == nil {
		t.Error("huge N accepted")
	}
}

func TestRunNative(t *testing.T) {
	res, err := Run(Config{N: 192, Trials: 2, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Errorf("verification failed: %v", res.MaxError)
	}
	if res.GFLOPS <= 0 {
		t.Errorf("GFLOPS = %v", res.GFLOPS)
	}
}

func TestRunWorkerClamp(t *testing.T) {
	res, err := Run(Config{N: 3, Workers: 16, Trials: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 3 {
		t.Errorf("workers = %d", res.Workers)
	}
}

func TestSimulate(t *testing.T) {
	res, err := Simulate(DefaultModelConfig(cluster.Fire(), 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Profile.Validate(cluster.Fire()); err != nil {
		t.Fatal(err)
	}
	fire := cluster.Fire()
	peak := float64(fire.TotalCores()) * fire.Node.CPU.ClockHz * fire.Node.CPU.FlopsPerCycle
	perf := float64(res.Perf)
	// DGEMM sustains more of peak than HPL but never exceeds it.
	if perf <= 0.6*peak || perf > peak {
		t.Errorf("DGEMM perf %v vs peak %v", perf, peak)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(ModelConfig{}); err == nil {
		t.Error("nil spec accepted")
	}
	bad := DefaultModelConfig(cluster.Fire(), 8)
	bad.Eff = 2
	if _, err := Simulate(bad); err == nil {
		t.Error("eff > 1 accepted")
	}
	bad = DefaultModelConfig(cluster.Fire(), 8)
	bad.MemFill = 1
	if _, err := Simulate(bad); err == nil {
		t.Error("fill > 0.9 accepted")
	}
}

func TestSimulateLinearScaling(t *testing.T) {
	a, err := Simulate(DefaultModelConfig(cluster.Fire(), 16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(DefaultModelConfig(cluster.Fire(), 64))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(b.Perf) / float64(a.Perf)
	// No communication: scaling is linear in procs (up to roofline caps).
	if ratio < 3.5 || ratio > 4.1 {
		t.Errorf("scaling 16->64 procs = %vx, want ~4x", ratio)
	}
}

func BenchmarkDGEMMNative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{N: 256, Trials: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GFLOPS, "GFLOPS")
	}
}
