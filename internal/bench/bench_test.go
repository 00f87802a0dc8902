package bench_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/suite"
)

// TestEveryWorkloadRoundTripsOnFire is the registry's contract test:
// each registered workload must carry a (spec, procs) pair through the
// whole suite pipeline on the paper's Fire cluster and come back as a
// well-formed Measurement.
func TestEveryWorkloadRoundTripsOnFire(t *testing.T) {
	spec := cluster.Fire()
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			w, ok := bench.Lookup(name)
			if !ok {
				t.Fatalf("Names lists %q but Lookup misses it", name)
			}
			cfg := suite.DefaultConfig(spec, 32)
			cfg.Benchmarks = []string{name}
			res, err := suite.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Runs) != 1 {
				t.Fatalf("%s: got %d runs, want 1", name, len(res.Runs))
			}
			m := res.Runs[0].Measurement
			if m.Benchmark != w.Name() {
				t.Errorf("measurement names %q, want %q", m.Benchmark, w.Name())
			}
			if m.Metric != w.Metric() {
				t.Errorf("metric %q, want %q", m.Metric, w.Metric())
			}
			if m.Performance <= 0 || m.Power <= 0 || m.Time <= 0 || m.Energy <= 0 {
				t.Errorf("%s: degenerate measurement %+v", name, m)
			}
		})
	}
}

// TestWorkloadsReuseScratch runs every registered workload on every
// named system, at process counts from one to the whole machine under
// both placements, on one shared Scratch, and requires each result to
// equal a scratch-free Simulate bit for bit. The system order goes from
// SystemG's 128 nodes to Fire's 8 and back, so a recycled profile that
// kept a larger machine's length, or a busier run's load on a node now
// idle, fails the comparison.
func TestWorkloadsReuseScratch(t *testing.T) {
	var sc bench.Scratch
	systems := append([]string{"systemg", "fire"}, cluster.Names()...)
	for _, system := range systems {
		spec, err := cluster.ByName(system)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range reuseProcs(spec) {
			for _, pl := range []cluster.Placement{cluster.Block, cluster.Cyclic} {
				for _, name := range bench.Names() {
					w, _ := bench.Lookup(name)
					at := fmt.Sprintf("%s on %s, %d procs %v", name, system, procs, pl)
					want, wantErr := w.Simulate(spec, bench.Env{Procs: procs, Placement: pl})
					got, gotErr := w.Simulate(spec, bench.Env{Procs: procs, Placement: pl, Scratch: &sc})
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v on a scratch, %v without", at, gotErr, wantErr)
					}
					if wantErr == nil {
						sameSimulated(t, at, got, want)
					}
				}
			}
		}
	}
}

// reuseProcs returns one process, two nodes' worth plus one, half the
// machine and the whole machine, as far as spec holds them.
func reuseProcs(spec *cluster.Spec) []int {
	var out []int
	for _, p := range []int{1, spec.Node.Cores() + 1, spec.TotalCores() / 2, spec.TotalCores()} {
		if p >= 1 && p <= spec.TotalCores() && (len(out) == 0 || p > out[len(out)-1]) {
			out = append(out, p)
		}
	}
	return out
}

// sameSimulated fails unless got and want carry bit-identical
// performance, engine stats and load profiles.
func sameSimulated(t *testing.T, at string, got, want bench.Simulated) {
	t.Helper()
	if math.Float64bits(got.Perf) != math.Float64bits(want.Perf) {
		t.Fatalf("%s: perf %v on a scratch, %v without", at, got.Perf, want.Perf)
	}
	if (got.Engine == nil) != (want.Engine == nil) || got.Engine != nil && *got.Engine != *want.Engine {
		t.Fatalf("%s: engine stats %+v on a scratch, %+v without", at, got.Engine, want.Engine)
	}
	gp, wp := got.Profile.Phases, want.Profile.Phases
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d phases on a scratch, %d without", at, len(gp), len(wp))
	}
	for i := range wp {
		if math.Float64bits(float64(gp[i].Duration)) != math.Float64bits(float64(wp[i].Duration)) {
			t.Fatalf("%s: phase %d lasts %v on a scratch, %v without", at, i, gp[i].Duration, wp[i].Duration)
		}
		g, w := gp[i].NodeUtil, wp[i].NodeUtil
		if len(g) != len(w) {
			t.Fatalf("%s: phase %d has %d node entries on a scratch, %d without", at, i, len(g), len(w))
		}
		for n := range w {
			if !sameUtil(g[n], w[n]) {
				t.Fatalf("%s: phase %d node %d load %+v on a scratch, %+v without", at, i, n, g[n], w[n])
			}
		}
	}
}

// sameUtil compares two node loads bit for bit.
func sameUtil(a, b cluster.Util) bool {
	bits := math.Float64bits
	return bits(a.CPU) == bits(b.CPU) && bits(a.Mem) == bits(b.Mem) &&
		bits(a.Disk) == bits(b.Disk) && bits(a.Net) == bits(b.Net)
}

// TestLookupIsNameInsensitive: the registry folds case and separators,
// so CLI spellings like "hpl", "randomaccess" and "beff" all resolve.
func TestLookupIsNameInsensitive(t *testing.T) {
	for spelled, want := range map[string]string{
		"hpl":           bench.HPL,
		"HPL":           bench.HPL,
		"randomaccess":  bench.RandomAccess,
		"Random-Access": bench.RandomAccess,
		"beff":          bench.Beff,
		"b_eff":         bench.Beff,
		"B-EFF":         bench.Beff,
		"iozone":        bench.IOzone,
	} {
		w, ok := bench.Lookup(spelled)
		if !ok {
			t.Errorf("Lookup(%q) missed", spelled)
			continue
		}
		if w.Name() != want {
			t.Errorf("Lookup(%q) = %q, want %q", spelled, w.Name(), want)
		}
	}
	if _, ok := bench.Lookup("linpack"); ok {
		t.Error("Lookup resolved an unregistered name")
	}
}

func TestResolve(t *testing.T) {
	got, err := bench.Resolve([]string{"hpl", "beff", "stream"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{bench.HPL, bench.Beff, bench.STREAM}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Resolve[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := bench.Resolve([]string{"hpl", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	} else if !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), bench.STREAM) {
		t.Errorf("unknown-benchmark error should name the culprit and the registry: %v", err)
	}
	if _, err := bench.Resolve([]string{"hpl", "HPL"}); err == nil {
		t.Error("duplicate benchmark accepted")
	}
}

func TestOrders(t *testing.T) {
	if got := bench.PaperOrder(); len(got) != 3 || got[0] != bench.HPL || got[1] != bench.STREAM || got[2] != bench.IOzone {
		t.Errorf("PaperOrder = %v", got)
	}
	ext := bench.ExtendedOrder()
	if len(ext) != 7 {
		t.Errorf("ExtendedOrder has %d entries, want 7", len(ext))
	}
	for _, name := range ext {
		if name == bench.Beff {
			t.Error("b_eff must stay opt-in, not part of ExtendedOrder")
		}
		if _, ok := bench.Lookup(name); !ok {
			t.Errorf("ExtendedOrder lists unregistered %q", name)
		}
	}
}

// BenchmarkWorkloadSimulate runs each workload on SystemG at 700
// processes, cyclic, on one reused Scratch as a sweep worker does and
// without one as a caller that keeps its profiles does. A warm scratch
// leaves each model one allocation, its ModelResult.
func BenchmarkWorkloadSimulate(b *testing.B) {
	spec := cluster.SystemG()
	for _, name := range bench.Names() {
		w, _ := bench.Lookup(name)
		for _, mode := range []struct {
			name    string
			scratch *bench.Scratch
		}{{"scratch", new(bench.Scratch)}, {"nil", nil}} {
			env := bench.Env{Procs: 700, Placement: cluster.Cyclic, Scratch: mode.scratch}
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := w.Simulate(spec, env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
