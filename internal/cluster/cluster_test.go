package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecValidation(t *testing.T) {
	for _, spec := range []*Spec{Fire(), SystemG(), GreenGPU(), Testbed()} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	bad := Fire()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-node spec validated")
	}
	bad2 := Fire()
	bad2.Node.CPU.MaxWatts = bad2.Node.CPU.IdleWatts - 1
	if err := bad2.Validate(); err == nil {
		t.Error("max < idle power validated")
	}
}

func TestFireMatchesPaper(t *testing.T) {
	f := Fire()
	if got := f.TotalCores(); got != 128 {
		t.Errorf("Fire cores = %d, want 128 (paper §IV)", got)
	}
	if f.Nodes != 8 {
		t.Errorf("Fire nodes = %d, want 8", f.Nodes)
	}
	if f.Node.CPU.ClockHz != 2.3e9 {
		t.Errorf("Fire clock = %v, want 2.3 GHz", f.Node.CPU.ClockHz)
	}
	// Peak must comfortably exceed the delivered ~0.9 TFLOPS HPL figure.
	peak := peakFLOPS(f)
	if peak < 1.1e12 || peak > 1.3e12 {
		t.Errorf("Fire peak = %v, want ~1.18 TFLOPS", peak)
	}
	if got := float64(f.Nodes) * f.Node.Memory.CapacityBytes; got != 8*32*(1<<30) {
		t.Errorf("Fire memory = %v", got)
	}
}

// peakFLOPS returns the cluster's peak floating-point rate.
func peakFLOPS(s *Spec) float64 {
	return float64(s.TotalCores()) * s.Node.CPU.ClockHz * s.Node.CPU.FlopsPerCycle
}

func TestSystemGMatchesPaper(t *testing.T) {
	g := SystemG()
	if got := g.TotalCores(); got != 1024 {
		t.Errorf("SystemG cores = %d, want 1024 (paper §IV)", got)
	}
	if g.Nodes != 128 {
		t.Errorf("SystemG nodes = %d, want 128", g.Nodes)
	}
	peak := peakFLOPS(g)
	if peak < 11e12 || peak > 12e12 {
		t.Errorf("SystemG peak = %v, want ~11.5 TFLOPS", peak)
	}
}

func TestDistributeBlock(t *testing.T) {
	f := Fire() // 16 cores/node, 8 nodes
	dist, err := f.Distribute(40, Block)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16, 16, 8, 0, 0, 0, 0, 0}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("block dist = %v, want %v", dist, want)
		}
	}
	if ActiveNodes(dist) != 3 {
		t.Errorf("active = %d, want 3", ActiveNodes(dist))
	}
}

func TestDistributeCyclic(t *testing.T) {
	f := Fire()
	dist, err := f.Distribute(10, Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 1, 1, 1, 1, 1, 1}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("cyclic dist = %v, want %v", dist, want)
		}
	}
	if ActiveNodes(dist) != 8 {
		t.Errorf("active = %d, want 8", ActiveNodes(dist))
	}
}

func TestDistributeErrors(t *testing.T) {
	f := Fire()
	if _, err := f.Distribute(0, Block); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := f.Distribute(129, Block); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := f.Distribute(8, Placement(99)); err == nil {
		t.Error("unknown placement accepted")
	}
}

func TestDistributeConservesProcs(t *testing.T) {
	f := Fire()
	check := func(rawP uint8, cyclic bool) bool {
		p := int(rawP)%f.TotalCores() + 1
		pl := Block
		if cyclic {
			pl = Cyclic
		}
		dist, err := f.Distribute(p, pl)
		if err != nil {
			return false
		}
		sum := 0
		for _, d := range dist {
			if d < 0 || d > f.Node.Cores() {
				return false
			}
			sum += d
		}
		return sum == p
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPSUEfficiency(t *testing.T) {
	psu := PSUSpec{EffAtIdle: 0.7, EffAtFull: 0.9, RatedDC: 100}
	if e := psu.Efficiency(0); e != 0.7 {
		t.Errorf("eff(0) = %v", e)
	}
	if e := psu.Efficiency(100); e != 0.9 {
		t.Errorf("eff(100) = %v", e)
	}
	if e := psu.Efficiency(50); math.Abs(e-0.8) > 1e-12 {
		t.Errorf("eff(50) = %v", e)
	}
	// Beyond rated load clamps to the full-load efficiency.
	if e := psu.Efficiency(200); e != 0.9 {
		t.Errorf("eff(200) = %v", e)
	}
	// Disabled PSU model is an ideal supply.
	ideal := PSUSpec{}
	if e := ideal.Efficiency(123); e != 1 {
		t.Errorf("ideal eff = %v", e)
	}
}

func TestUtilClamp(t *testing.T) {
	u := Util{CPU: 1.5, Mem: -0.2, Disk: 0.5, Net: 0}.Clamp()
	if u.CPU != 1 || u.Mem != 0 || u.Disk != 0.5 || u.Net != 0 {
		t.Errorf("clamp = %+v", u)
	}
}

func TestLoadProfile(t *testing.T) {
	f := Fire()
	lp := &LoadProfile{Phases: []Phase{
		UniformPhase(10, 2, Util{CPU: 1}),
		UniformPhase(5, 8, Util{CPU: 0.5}),
	}}
	if err := lp.Validate(f); err != nil {
		t.Fatal(err)
	}
	if d := lp.Duration(); d != 15 {
		t.Errorf("duration = %v", d)
	}
	empty := &LoadProfile{}
	if err := empty.Validate(f); err == nil {
		t.Error("empty profile validated")
	}
	badDur := &LoadProfile{Phases: []Phase{{Duration: 0}}}
	if err := badDur.Validate(f); err == nil {
		t.Error("zero-duration phase validated")
	}
	tooWide := &LoadProfile{Phases: []Phase{UniformPhase(1, 9, Util{})}}
	if err := tooWide.Validate(f); err == nil {
		t.Error("profile wider than cluster validated")
	}
}

// TestFromDistribution builds a block phase over two Fire nodes, first
// with a nil scratch and then on a scratch whose previous profile
// loaded every node, which the new phase must leave idle.
func TestFromDistribution(t *testing.T) {
	f := Fire()
	util := func(procs, cores int) Util { return Util{CPU: float64(procs) / float64(cores)} }
	var sc Scratch
	full, _ := sc.Distribute(f, f.TotalCores(), Cyclic)
	sc.FromDistribution(10, f, full, util)
	for _, s := range []*Scratch{nil, &sc} {
		dist, _ := s.Distribute(f, 24, Block) // 16 + 8
		lp := s.FromDistribution(10, f, dist, util)
		if len(lp.Phases) != 1 || lp.Phases[0].Duration != 10 {
			t.Fatalf("scratch %v: phases %+v, want one of 10 s", s != nil, lp.Phases)
		}
		nu := lp.Phases[0].NodeUtil
		if len(nu) != f.Nodes {
			t.Fatalf("scratch %v: %d node entries, want %d", s != nil, len(nu), f.Nodes)
		}
		if nu[0].CPU != 1 {
			t.Errorf("scratch %v: node0 cpu = %v", s != nil, nu[0].CPU)
		}
		if nu[1].CPU != 0.5 {
			t.Errorf("scratch %v: node1 cpu = %v", s != nil, nu[1].CPU)
		}
		for i := 2; i < f.Nodes; i++ {
			if nu[i] != (Util{}) {
				t.Errorf("scratch %v: idle node %d has load %+v", s != nil, i, nu[i])
			}
		}
	}
}

func TestPlacementString(t *testing.T) {
	if Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Error("placement names wrong")
	}
	if Placement(9).String() == "" {
		t.Error("unknown placement has empty name")
	}
}

func TestSiCortexSpec(t *testing.T) {
	s := SiCortex()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalCores() != 648 {
		t.Errorf("cores = %d, want 648 (SC648)", s.TotalCores())
	}
	// The design point: peak well below Fire's, but the full-load
	// power-per-peak-flop far better.
	fire := Fire()
	if peakFLOPS(s) >= peakFLOPS(fire) {
		t.Error("SiCortex peak should be below Fire's")
	}
}

func TestWithFrequency(t *testing.T) {
	base := Fire()
	half, err := WithFrequency(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.Node.CPU.ClockHz != base.Node.CPU.ClockHz/2 {
		t.Errorf("clock = %v", half.Node.CPU.ClockHz)
	}
	// Dynamic power falls superlinearly: less than half remains.
	dynBase := base.Node.CPU.MaxWatts - base.Node.CPU.IdleWatts
	dynHalf := half.Node.CPU.MaxWatts - half.Node.CPU.IdleWatts
	if dynHalf >= dynBase/2 {
		t.Errorf("dynamic power %v not superlinear vs %v", dynHalf, dynBase)
	}
	// Idle power untouched; original spec untouched.
	if half.Node.CPU.IdleWatts != base.Node.CPU.IdleWatts {
		t.Error("idle power changed")
	}
	if base.Node.CPU.ClockHz != 2.3e9 {
		t.Error("original spec mutated")
	}
	if half.Name == base.Name {
		t.Error("scaled spec not renamed")
	}
}

func TestWithFrequencyValidation(t *testing.T) {
	if _, err := WithFrequency(nil, 0.5); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := WithFrequency(Fire(), 0.1); err == nil {
		t.Error("factor 0.1 accepted")
	}
	if _, err := WithFrequency(Fire(), 2); err == nil {
		t.Error("factor 2 accepted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fire", "Fire", "systemg", "greengpu", "gpu", "sicortex", "testbed"} {
		spec, err := ByName(name)
		if err != nil || spec == nil {
			t.Errorf("ByName(%q) = %v, %v", name, spec, err)
		}
	}
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Errorf("listed name %q does not resolve: %v", name, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("cray"); err == nil {
		t.Error("unknown system accepted")
	}
	// Each call builds a fresh spec, so callers may mutate theirs.
	a, _ := ByName("fire")
	b, _ := ByName("fire")
	if a == b {
		t.Error("ByName returned a shared spec")
	}
}
