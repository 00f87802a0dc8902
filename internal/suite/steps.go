package suite

import (
	"strconv"

	"repro/internal/bench"
	"repro/internal/obs"
)

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
		steps = append(steps, benchStep{name: w.Name(), metric: w.Metric(), w: w,
			attemptHist: attemptSecondsPrefix + w.Name()})
	}
	sc.steps = steps
	sc.stepNames = append(sc.stepNames[:0], names...)
	return steps, nil
}

// attemptName returns the span name of attempt n, "attempt n". The
// scratch keeps each name it builds, so a warm worker builds none.
func (sc *cellScratch) attemptName(n int) string {
	for len(sc.attemptNames) < n {
		sc.attemptNames = append(sc.attemptNames, obs.AttemptPrefix+strconv.Itoa(len(sc.attemptNames)+1))
	}
	return sc.attemptNames[n-1]
}

// runName returns the span name of a suite run at procs processes,
// "run p=procs", kept like attemptName's.
func (sc *cellScratch) runName(procs int) string {
	name, ok := sc.runNames[procs]
	if !ok {
		if sc.runNames == nil {
			sc.runNames = map[int]string{}
		}
		name = "run p=" + strconv.Itoa(procs)
		sc.runNames[procs] = name
	}
	return name
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
