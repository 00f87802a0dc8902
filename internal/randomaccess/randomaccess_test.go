package randomaccess

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// stream returns n successive LFSR values after seed.
func stream(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	x := seed
	for i := range out {
		x = nextRan(x)
		out[i] = x
	}
	return out
}

func TestStreamProperties(t *testing.T) {
	s := stream(1, 1000)
	if len(s) != 1000 {
		t.Fatalf("len = %d", len(s))
	}
	// The LFSR never hits zero and does not repeat quickly.
	seen := map[uint64]bool{}
	for _, v := range s {
		if v == 0 {
			t.Fatal("LFSR reached zero")
		}
		if seen[v] {
			t.Fatal("short cycle in LFSR stream")
		}
		seen[v] = true
	}
	// Deterministic.
	s2 := stream(1, 1000)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("stream not deterministic")
		}
	}
}

func TestStreamBitBalance(t *testing.T) {
	// The low bit of a maximal LFSR stream is roughly balanced.
	s := stream(0x123456789, 100000)
	ones := 0
	for _, v := range s {
		ones += int(v & 1)
	}
	frac := float64(ones) / float64(len(s))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("low-bit balance = %v", frac)
	}
}

func TestRunVerifies(t *testing.T) {
	res, err := Run(Config{LogTableSize: 12, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("run not verified")
	}
	if res.GUPS <= 0 {
		t.Errorf("GUPS = %v", res.GUPS)
	}
	if res.TableWords != 2*(1<<12) {
		t.Errorf("table words = %d", res.TableWords)
	}
	if res.Updates != 2*4*(1<<12) {
		t.Errorf("updates = %d", res.Updates)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{LogTableSize: 1}); err == nil {
		t.Error("tiny table accepted")
	}
	if _, err := Run(Config{LogTableSize: 31}); err == nil {
		t.Error("huge table accepted")
	}
}

func TestDoubleApplyIsIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		w := &worker{table: make([]uint64, 256), seed: seed | 1, n: 1024}
		for j := range w.table {
			w.table[j] = uint64(j) * 3
		}
		w.apply()
		w.apply()
		for j, v := range w.table {
			if v != uint64(j)*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSimulate(t *testing.T) {
	res, err := Simulate(DefaultModelConfig(cluster.Fire(), 128))
	if err != nil {
		t.Fatal(err)
	}
	if res.GUPS <= 0 || res.Duration <= 0 {
		t.Errorf("GUPS %v duration %v", res.GUPS, res.Duration)
	}
	if err := res.Profile.Validate(cluster.Fire()); err != nil {
		t.Fatal(err)
	}
	// Plausibility: a 2010 8-node commodity cluster sits well under 10 GUPS.
	if res.GUPS > 10 {
		t.Errorf("GUPS %v implausible", res.GUPS)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(ModelConfig{}); err == nil {
		t.Error("nil spec accepted")
	}
	bad := DefaultModelConfig(cluster.Fire(), 8)
	bad.MemLatency = -1
	if _, err := Simulate(bad); err == nil {
		t.Error("negative latency accepted")
	}
	bad = DefaultModelConfig(cluster.Fire(), 8)
	bad.TableFill = 5
	if _, err := Simulate(bad); err == nil {
		t.Error("fill > 0.9 accepted")
	}
}

func TestSimulateScalesWithProcsUntilBandwidthCap(t *testing.T) {
	g := func(p int) float64 {
		r, err := Simulate(DefaultModelConfig(cluster.Fire(), p))
		if err != nil {
			t.Fatal(err)
		}
		return r.GUPS
	}
	g8, g32 := g(8), g(32)
	if g32 <= g8 {
		t.Errorf("no scaling: %v -> %v", g8, g32)
	}
	// The per-node bandwidth ceiling (25 GB/s / 64 B = 390 M updates/s per
	// node, 3.1 GUPS cluster-wide) bounds the whole sweep.
	if g128 := g(128); g128 > 3.2 {
		t.Errorf("bandwidth cap violated: %v GUPS", g128)
	}
}

func BenchmarkGUPSNative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{LogTableSize: 16, Workers: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GUPS, "GUPS")
	}
}
