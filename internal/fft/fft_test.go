package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestTransformRejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		if err := Transform(make([]complex128, n)); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

func TestTransformKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := Transform(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse bin %d = %v", i, v)
		}
	}
	// FFT of a constant is an impulse of height n at bin 0.
	y := []complex128{2, 2, 2, 2}
	if err := Transform(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-8) > 1e-12 {
		t.Errorf("DC bin = %v", y[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, y[i])
		}
	}
	// A pure tone lands in exactly one bin.
	n := 16
	z := make([]complex128, n)
	for i := range z {
		ang := 2 * math.Pi * 3 * float64(i) / float64(n)
		z[i] = cmplx.Rect(1, ang)
	}
	if err := Transform(z); err != nil {
		t.Fatal(err)
	}
	for i := range z {
		want := 0.0
		if i == 3 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(z[i])-want) > 1e-9 {
			t.Errorf("tone bin %d = %v", i, z[i])
		}
	}
}

// dft is the O(n²) direct transform used as a reference in tests.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func TestTransformMatchesDFT(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, n := range []int{2, 4, 8, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormAt(0, 1), rng.NormAt(0, 1))
		}
		ref := dft(x)
		if err := Transform(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-ref[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: fft %v, dft %v", n, i, x[i], ref[i])
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed uint64, logn uint8) bool {
		n := 1 << (logn%10 + 1)
		rng := sim.NewRNG(seed)
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormAt(0, 1), rng.NormAt(0, 1))
			orig[i] = x[i]
		}
		if err := Transform(x); err != nil {
			return false
		}
		if err := Inverse(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² = (1/n)·Σ|X|².
	rng := sim.NewRNG(5)
	n := 512
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormAt(0, 1), rng.NormAt(0, 1))
		timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := Transform(x); err != nil {
		t.Fatal(err)
	}
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-8*timeE {
		t.Errorf("Parseval violated: %v vs %v", freqE/float64(n), timeE)
	}
}

func TestFlopCount(t *testing.T) {
	if f := FlopCount(1024); f != 5*1024*10 {
		t.Errorf("FlopCount(1024) = %v", f)
	}
}

func TestRunNative(t *testing.T) {
	res, err := Run(Config{LogN: 14, Trials: 2, Batches: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Errorf("round-trip error %v failed", res.MaxError)
	}
	if res.GFLOPS <= 0 || res.N != 1<<14 {
		t.Errorf("result = %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{LogN: 0}); err == nil {
		t.Error("LogN=0 accepted")
	}
	if _, err := Run(Config{LogN: 40}); err == nil {
		t.Error("huge LogN accepted")
	}
}

func TestSimulate(t *testing.T) {
	res, err := Simulate(DefaultModelConfig(cluster.Fire(), 128))
	if err != nil {
		t.Fatal(err)
	}
	if res.N&(res.N-1) != 0 {
		t.Errorf("N=%d not a power of two", res.N)
	}
	if float64(res.Perf) <= 0 || res.Duration <= 0 {
		t.Errorf("perf %v duration %v", res.Perf, res.Duration)
	}
	if err := res.Profile.Validate(cluster.Fire()); err != nil {
		t.Fatal(err)
	}
	// FFT is far below HPL's efficiency on the same machine.
	fire := cluster.Fire()
	peak := float64(fire.TotalCores()) * fire.Node.CPU.ClockHz * fire.Node.CPU.FlopsPerCycle
	if float64(res.Perf) > 0.5*peak {
		t.Errorf("FFT at %v implausibly close to peak %v", res.Perf, peak)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(ModelConfig{}); err == nil {
		t.Error("nil spec accepted")
	}
	bad := DefaultModelConfig(cluster.Fire(), 8)
	bad.MemFill = 2
	if _, err := Simulate(bad); err == nil {
		t.Error("fill > 0.9 accepted")
	}
	bad = DefaultModelConfig(cluster.Fire(), 8)
	bad.ComputeEff = -1
	if _, err := Simulate(bad); err == nil {
		t.Error("negative efficiency accepted")
	}
}

func TestSimulatePerfGrowsWithProcs(t *testing.T) {
	a, err := Simulate(DefaultModelConfig(cluster.Fire(), 16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(DefaultModelConfig(cluster.Fire(), 128))
	if err != nil {
		t.Fatal(err)
	}
	if float64(b.Perf) <= float64(a.Perf) {
		t.Errorf("perf did not grow: %v -> %v", a.Perf, b.Perf)
	}
}

func BenchmarkTransform64K(b *testing.B) {
	x := make([]complex128, 1<<16)
	rng := sim.NewRNG(1)
	for i := range x {
		x[i] = complex(rng.NormAt(0, 1), rng.NormAt(0, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Transform(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(FlopCount(1<<16)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func TestDistRunValidation(t *testing.T) {
	if _, err := DistRun(DistConfig{LogN1: 0, LogN2: 4, Procs: 1}); err == nil {
		t.Error("LogN1=0 accepted")
	}
	if _, err := DistRun(DistConfig{LogN1: 20, LogN2: 20, Procs: 1}); err == nil {
		t.Error("huge size accepted")
	}
	if _, err := DistRun(DistConfig{LogN1: 4, LogN2: 4, Procs: 3}); err == nil {
		t.Error("indivisible rank count accepted")
	}
	if _, err := DistRun(DistConfig{LogN1: 4, LogN2: 4, Procs: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestDistRunMatchesSerial(t *testing.T) {
	cases := []DistConfig{
		{LogN1: 3, LogN2: 3, Procs: 1, Seed: 1},
		{LogN1: 4, LogN2: 4, Procs: 2, Seed: 2},
		{LogN1: 5, LogN2: 4, Procs: 4, Seed: 3},
		{LogN1: 6, LogN2: 5, Procs: 8, Seed: 4},
		{LogN1: 4, LogN2: 6, Procs: 4, Seed: 5}, // n2 > n1
	}
	for _, cfg := range cases {
		res, err := DistRun(cfg)
		if err != nil {
			t.Errorf("%+v: %v", cfg, err)
			continue
		}
		if !res.Passed {
			t.Errorf("%+v: relative error %v", cfg, res.MaxError)
		}
		if res.N != 1<<(cfg.LogN1+cfg.LogN2) {
			t.Errorf("%+v: N = %d", cfg, res.N)
		}
	}
}

func TestDistRunDeterministicInput(t *testing.T) {
	if inputAt(1, 5) != inputAt(1, 5) {
		t.Error("input generator not deterministic")
	}
	if inputAt(1, 5) == inputAt(2, 5) || inputAt(1, 5) == inputAt(1, 6) {
		t.Error("input generator insensitive to seed/index")
	}
}

func BenchmarkDistFFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := DistRun(DistConfig{LogN1: 7, LogN2: 7, Procs: 2, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed {
			b.Fatalf("error %v", res.MaxError)
		}
		b.ReportMetric(res.GFLOPS, "GFLOPS")
	}
}
