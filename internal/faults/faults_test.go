package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/power"
)

func TestEmptyPlanDrawsNothing(t *testing.T) {
	for _, p := range []*Plan{nil, {}, {Seed: 42}} {
		inj := p.Draw("HPL", 8, 0, 500, 4)
		if inj.CrashAt >= 0 || inj.Slowdown != 1 {
			t.Errorf("plan %+v injected %+v", p, inj)
		}
		if !p.Empty() {
			t.Errorf("plan %+v not Empty", p)
		}
		if p.MeterFaulty() {
			t.Errorf("plan %+v reports meter faults", p)
		}
	}
}

func TestDrawDeterministic(t *testing.T) {
	p := &Plan{
		Seed:      7,
		CrashProb: 0.5,
		Straggler: &Straggler{Prob: 0.5, ClockFactor: 0.5},
	}
	first := p.Draw("HPL", 8, 0, 500, 4)
	for i := 0; i < 10; i++ {
		if again := p.Draw("HPL", 8, 0, 500, 4); again != first {
			t.Fatalf("draw %d = %+v, first = %+v", i, again, first)
		}
	}
	// Different keys give independent streams: across benchmarks, process
	// counts and attempts at least one draw must differ from the rest (with
	// these probabilities a collision of all of them is astronomically
	// unlikely for any seed).
	draws := map[Injection]bool{first: true}
	for _, bench := range []string{"HPL", "STREAM", "IOzone"} {
		for _, procs := range []int{4, 8, 16} {
			for attempt := 0; attempt < 3; attempt++ {
				draws[p.Draw(bench, procs, attempt, 500, 4)] = true
			}
		}
	}
	if len(draws) < 2 {
		t.Error("all (bench, procs, attempt) keys produced the identical draw")
	}
}

func TestScheduledCrashBeatsProbabilistic(t *testing.T) {
	p := &Plan{
		Crashes: []Crash{{Benchmark: "HPL", Node: 3, At: 120, Attempt: 1}},
	}
	// Wrong benchmark / attempt: no crash.
	if inj := p.Draw("STREAM", 8, 1, 500, 4); inj.CrashAt >= 0 {
		t.Errorf("STREAM drew scheduled HPL crash: %+v", inj)
	}
	if inj := p.Draw("HPL", 8, 0, 500, 4); inj.CrashAt >= 0 {
		t.Errorf("attempt 0 drew attempt-1 crash: %+v", inj)
	}
	// Matching attempt hits exactly as scheduled.
	inj := p.Draw("HPL", 8, 1, 500, 4)
	if inj.CrashAt != 120 || inj.CrashNode != 3 {
		t.Errorf("scheduled crash drew %+v, want t=120 node=3", inj)
	}
	// An empty Benchmark matches everything.
	all := &Plan{Crashes: []Crash{{Node: 0, At: 10}}}
	if inj := all.Draw("IOzone", 4, 0, 100, 2); inj.CrashAt != 10 {
		t.Errorf("wildcard crash drew %+v", inj)
	}
}

func TestStragglerSlowdown(t *testing.T) {
	p := &Plan{
		Straggler: &Straggler{Prob: 1, ClockFactor: 0.8, BandwidthFactor: 0.5},
	}
	inj := p.Draw("HPL", 8, 0, 500, 4)
	// Bulk-synchronous: the slowest factor (0.5) governs the whole run.
	if inj.Slowdown != 2 {
		t.Errorf("slowdown = %v, want 2 (1/min(0.8, 0.5))", inj.Slowdown)
	}
	if inj.CrashAt >= 0 {
		t.Errorf("unexpected crash: %+v", inj)
	}
}

func TestValidateRejectsBadParameters(t *testing.T) {
	cases := []*Plan{
		{CrashProb: 1},
		{CrashProb: -0.1},
		{Crashes: []Crash{{At: -1}}},
		{Crashes: []Crash{{Node: -2}}},
		{Crashes: []Crash{{Attempt: -1}}},
		{Straggler: &Straggler{Prob: 1.5}},
		{Straggler: &Straggler{ClockFactor: 2}},
		{Fabric: &Interconnect{BandwidthFactor: 1.5}},
		{Fabric: &Interconnect{LatencyFactor: 0.5}},
		{Meter: &Meter{DropRate: 1}},
		{Meter: &Meter{GlitchRate: -0.1}},
		{Meter: &Meter{GlitchWatts: -1}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v) validated", i, p)
		}
	}
	ok := &Plan{
		Seed:      1,
		CrashProb: 0.1,
		Crashes:   []Crash{{Benchmark: "HPL", Node: 1, At: 60, Attempt: 0}},
		Straggler: &Straggler{Prob: 0.2, ClockFactor: 0.9},
		Fabric:    &Interconnect{BandwidthFactor: 0.5, LatencyFactor: 2},
		Meter:     &Meter{DropRate: 0.1, GlitchRate: 0.05, GlitchWatts: 30},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := &Plan{
		Seed:      99,
		CrashProb: 0.25,
		Crashes:   []Crash{{Benchmark: "STREAM", Node: 2, At: 30, Attempt: 1}},
		Straggler: &Straggler{Prob: 0.1, ClockFactor: 0.7, BandwidthFactor: 0.9},
		Fabric:    &Interconnect{BandwidthFactor: 0.5, LatencyFactor: 3},
		Meter:     &Meter{DropRate: 0.05, GlitchRate: 0.02, GlitchWatts: 40},
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compare by re-drawing: the loaded plan must inject identically.
	a := p.Draw("STREAM", 8, 1, 500, 4)
	b := got.Draw("STREAM", 8, 1, 500, 4)
	if a != b {
		t.Errorf("loaded plan draws %+v, original %+v", b, a)
	}
	if *got.Straggler != *p.Straggler || *got.Fabric != *p.Fabric || *got.Meter != *p.Meter {
		t.Errorf("round trip mangled plan: %+v vs %+v", got, p)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, `{"crash_prob": "lots"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("garbage plan loaded")
	} else if !strings.Contains(err.Error(), "not a valid fault plan") {
		t.Errorf("unhelpful error: %v", err)
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := writeFile(invalid, `{"crash_prob": 2}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(invalid); err == nil {
		t.Error("out-of-range plan loaded")
	}
}

func TestApplySpecDegradesInterconnect(t *testing.T) {
	spec := cluster.Testbed()
	p := &Plan{Fabric: &Interconnect{BandwidthFactor: 0.5, LatencyFactor: 4}}
	out := p.ApplySpec(spec)
	if out == spec {
		t.Fatal("ApplySpec returned the original spec")
	}
	if out.Interconnect.LinkBps != spec.Interconnect.LinkBps*0.5 {
		t.Errorf("bandwidth %v, want halved %v", out.Interconnect.LinkBps, spec.Interconnect.LinkBps*0.5)
	}
	if out.Interconnect.LatencySec != spec.Interconnect.LatencySec*4 {
		t.Errorf("latency %v, want ×4 %v", out.Interconnect.LatencySec, spec.Interconnect.LatencySec*4)
	}
	// The original spec is untouched, and a fabric-free plan is a no-op.
	if (&Plan{}).ApplySpec(spec) != spec {
		t.Error("empty plan copied the spec")
	}
}

func TestApplyMeterOverlaysFaults(t *testing.T) {
	base := power.MeterConfig{Interval: 1, Seed: 5}
	p := &Plan{Meter: &Meter{DropRate: 0.2, GlitchRate: 0.1}}
	got := p.ApplyMeter(base)
	if got.DropRate != 0.2 || got.GlitchRate != 0.1 {
		t.Errorf("overlay = %+v", got)
	}
	if got.GlitchWatts != 50 {
		t.Errorf("glitch magnitude defaulted to %v, want 50", got.GlitchWatts)
	}
	if got.Interval != base.Interval || got.Seed != base.Seed {
		t.Errorf("overlay clobbered base config: %+v", got)
	}
	if clean := (&Plan{}).ApplyMeter(base); clean != base {
		t.Errorf("empty plan changed meter config: %+v", clean)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
