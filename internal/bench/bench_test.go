package bench_test

import (
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
