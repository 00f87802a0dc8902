package suite

import (
	"repro/internal/bench"
	"repro/internal/cluster"
)

// ExtendedOrder lists the seven benchmarks of the extended suite in run
// order — the full HPC Challenge-style coverage the paper's introduction
// motivates ("there are seven different benchmark tests in the suite"):
// compute (HPL, DGEMM), memory bandwidth (STREAM), memory latency
// (RandomAccess), interconnect (PTRANS), mixed compute/all-to-all (FFT)
// and I/O (IOzone, the paper's own extension beyond HPCC). b_eff stays
// opt-in: name it in Config.Benchmarks to add interconnect coverage.
var ExtendedOrder = bench.ExtendedOrder()

// RunExtended executes the seven-benchmark suite at one process count.
// The three paper benchmarks run exactly as in Run; the four additions use
// their packages' default model configurations. The resilience machinery
// (faults, retries, degradation, checkpointing) applies to all seven.
func RunExtended(cfg Config) (*Result, error) {
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = ExtendedOrder
	}
	return Run(cfg)
}

// RunExtendedOn is RunExtended with the default configuration for spec.
func RunExtendedOn(spec *cluster.Spec, procs int) (*Result, error) {
	return RunExtended(DefaultConfig(spec, procs))
}
