package stream

import (
	"testing"

	"repro/internal/cluster"
)

func TestKernelMetadata(t *testing.T) {
	if Copy.BytesPerElement() != 16 || Scale.BytesPerElement() != 16 {
		t.Error("Copy/Scale traffic wrong")
	}
	if Add.BytesPerElement() != 24 || Triad.BytesPerElement() != 24 {
		t.Error("Add/Triad traffic wrong")
	}
	if Kernel(99).BytesPerElement() != 0 {
		t.Error("unknown kernel traffic nonzero")
	}
	if Triad.String() != "Triad" || Copy.String() != "Copy" {
		t.Error("kernel names wrong")
	}
}

func TestRunValidatesInput(t *testing.T) {
	if _, err := Run(Triad, Config{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestRunAllKernels(t *testing.T) {
	for _, k := range []Kernel{Copy, Scale, Add, Triad} {
		r, err := Run(k, Config{N: 1 << 18, Trials: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Validated {
			t.Errorf("%v not validated", k)
		}
		if float64(r.Best) <= 0 {
			t.Errorf("%v best rate %v", k, r.Best)
		}
		if float64(r.Best) < float64(r.Avg) {
			t.Errorf("%v best %v below average %v", k, r.Best, r.Avg)
		}
	}
}

func TestRunWorkerClamping(t *testing.T) {
	// More workers than elements must not panic.
	r, err := Run(Copy, Config{N: 3, Workers: 16, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 3 {
		t.Errorf("workers = %d, want 3", r.Workers)
	}
}

func TestNativeTriadRate(t *testing.T) {
	// 8 MiB arrays: big enough to leave L2 on any host, small enough to be
	// fast. The measured rate must be physically plausible (0.1-1000 GB/s).
	r, err := Run(Triad, Config{N: 1 << 20, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	bw := float64(r.Best)
	if bw < 1e8 || bw > 1e12 {
		t.Errorf("triad rate %v implausible", r.Best)
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := Simulate(ModelConfig{}); err == nil {
		t.Error("nil spec accepted")
	}
	bad := DefaultModelConfig(cluster.Fire(), 8)
	bad.SatProcs = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("SatProcs=0 accepted")
	}
	bad = DefaultModelConfig(cluster.Fire(), 8)
	bad.Contention = 2
	if _, err := Simulate(bad); err == nil {
		t.Error("contention > 1 accepted")
	}
	if _, err := Simulate(DefaultModelConfig(cluster.Fire(), 10_000)); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestNodeBandwidthShape(t *testing.T) {
	spec := cluster.Fire()
	cfg := DefaultModelConfig(spec, 8)
	// Ramp: 1 proc gets 1/SatProcs of saturation.
	b1 := nodeBandwidth(spec, cfg, 1)
	b4 := nodeBandwidth(spec, cfg, 4)
	b16 := nodeBandwidth(spec, cfg, 16)
	if b1 >= b4 {
		t.Errorf("ramp broken: %v >= %v", b1, b4)
	}
	if b4 != spec.Node.Memory.BandwidthBps {
		t.Errorf("saturation at SatProcs = %v, want %v", b4, spec.Node.Memory.BandwidthBps)
	}
	// Contention: a fully-packed node is slower than a half-packed one.
	if b16 >= b4 {
		t.Errorf("contention missing: %v >= %v", b16, b4)
	}
	if nodeBandwidth(spec, cfg, 0) != 0 {
		t.Error("idle node has bandwidth")
	}
}

func TestSimulateAggregateSaturatesThenDeclines(t *testing.T) {
	// Cyclic placement on Fire: aggregate BW rises to p=32 (4 procs/node,
	// saturation), then declines as packing adds contention.
	get := func(p int) float64 {
		r, err := Simulate(DefaultModelConfig(cluster.Fire(), p))
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Aggregate)
	}
	b8, b32, b128 := get(8), get(32), get(128)
	if b8 >= b32 {
		t.Errorf("no ramp: p8=%v >= p32=%v", b8, b32)
	}
	if b128 >= b32 {
		t.Errorf("no contention decline: p128=%v >= p32=%v", b128, b32)
	}
}

func TestSimulateBlockVsCyclic(t *testing.T) {
	// With 8 procs, cyclic spreads one per node (8 × ramp(1)); block packs
	// one node (1 × ramp(8) = saturation). Cyclic yields 8×25/4 = 50 GB/s,
	// block 25 GB/s: placement matters, which is the ablation's point.
	cyc := DefaultModelConfig(cluster.Fire(), 8)
	blk := cyc
	blk.Placement = cluster.Block
	rc, err := Simulate(cyc)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(blk)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rc.Aggregate) <= float64(rb.Aggregate) {
		t.Errorf("cyclic %v not above block %v at low proc counts",
			rc.Aggregate, rb.Aggregate)
	}
}

func TestSimulateProfile(t *testing.T) {
	r, err := Simulate(DefaultModelConfig(cluster.Fire(), 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Profile.Validate(cluster.Fire()); err != nil {
		t.Fatal(err)
	}
	if r.Duration <= 0 {
		t.Errorf("duration %v", r.Duration)
	}
	u := r.Profile.Phases[0].NodeUtil[0]
	if u.Mem <= 0 || u.Mem > 1 {
		t.Errorf("mem util %v", u.Mem)
	}
	// STREAM burns far less CPU power than HPL: CPU util must be well
	// below the process share.
	if u.CPU >= 0.5*8/16+0.01 && u.CPU > 0.5 {
		t.Errorf("cpu util %v too high for a memory-bound code", u.CPU)
	}
}

func BenchmarkTriadNative(b *testing.B) {
	cfg := Config{N: 1 << 21, Trials: 1}
	for i := 0; i < b.N; i++ {
		r, err := Run(Triad, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Best)/1e9, "GB/s")
	}
}
