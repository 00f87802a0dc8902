package suite

import "repro/internal/bench"

// defaultBenchmarks is the paper's suite, resolved once: benchmarks()
// is on the per-cell hot path and must not rebuild the default list.
var defaultBenchmarks = bench.PaperOrder()

// benchmarks returns the run's effective ordered benchmark list: an
// explicit Config.Benchmarks, or the paper's three by default. The
// returned slice is read-only.
func (c *Config) benchmarks() []string {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	return defaultBenchmarks
}

// stepsFor assembles the run's steps from the workload registry — the
// suite layer knows no benchmark by name. Each step wraps one registered
// workload; the run's environment (process count, placement) is threaded
// in at simulate time, so the resilience machinery, journaling, tracing
// and reports treat every workload identically. Steps carry no per-run
// state, so the scratch keeps the assembled list for the next cell that
// runs the same benchmark list.
func (sc *cellScratch) stepsFor(cfg *Config) ([]benchStep, error) {
	names := cfg.benchmarks()
	if sameNames(sc.stepNames, names) {
		return sc.steps, nil
	}
	resolved, err := bench.Resolve(names)
	if err != nil {
		return nil, err
	}
	steps := make([]benchStep, 0, len(resolved))
	for _, name := range resolved {
		w, _ := bench.Lookup(name)
		steps = append(steps, benchStep{name: w.Name(), metric: w.Metric(), w: w})
	}
	sc.steps = steps
	sc.stepNames = append(sc.stepNames[:0], names...)
	return steps, nil
}

// sameNames reports whether two benchmark lists are elementwise equal.
func sameNames(a, b []string) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
