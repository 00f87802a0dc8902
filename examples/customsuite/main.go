// Custom suite composition + parallel sweeps: pick the workloads TGI
// aggregates, then scale the campaign across a worker pool.
//
// The workload registry decouples the suite layer from any fixed
// benchmark list. Here we build an interconnect-aware suite — the
// paper's three subsystem probes plus the opt-in b_eff ring-bandwidth
// workload — compute TGI over it, and then run a full process-count
// sweep on four workers. Every sweep cell is seeded independently, so
// four workers reproduce the one-worker results exactly.
//
//	go run ./examples/customsuite
package main

import (
	"encoding/json"
	"fmt"
	"log"

	greenindex "repro"
)

func main() {
	// The registry's vocabulary: every workload RunCustomSuite accepts.
	fmt.Println("Registered workloads:", greenindex.Workloads())

	// 1. Compose a four-benchmark suite. Names are matched case- and
	// separator-insensitively ("beff" resolves to "b_eff"), and the
	// order given here is the order the suite runs and reports.
	suiteOf := []string{"HPL", "STREAM", "IOzone", "beff"}
	ref, err := greenindex.RunCustomSuite(greenindex.SystemG(), 1024, suiteOf...)
	if err != nil {
		log.Fatal(err)
	}
	test, err := greenindex.RunCustomSuite(greenindex.Fire(), 128, suiteOf...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFire @ 128 cores, interconnect-aware suite:")
	for _, m := range test.Measurements() {
		fmt.Printf("  %-7s %10.4g %-6s at %s over %s\n",
			m.Benchmark, m.Performance, m.Metric, m.Power, m.Time)
	}

	// 2. TGI works over any benchmark set, as long as test and reference
	// ran the same one — the relative-efficiency step cancels the units.
	res, err := greenindex.Compute(test.Measurements(), ref.Measurements(),
		greenindex.ArithmeticMean, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTGI(Fire vs SystemG, incl. b_eff) = %.4f\n", res.TGI)

	// 3. Sweep the whole axis on a worker pool. Cells are independent,
	// deterministically-seeded simulations, so four workers produce the
	// same bytes one worker would — just sooner.
	axis := []int{8, 16, 32, 64, 128}
	parallel, err := greenindex.SweepSuiteParallel(greenindex.Fire(), axis, 4)
	if err != nil {
		log.Fatal(err)
	}
	oneWorker, err := greenindex.SweepSuite(greenindex.Fire(), axis)
	if err != nil {
		log.Fatal(err)
	}
	pb, _ := json.Marshal(parallel)
	sb, _ := json.Marshal(oneWorker)
	fmt.Printf("\nSweep over %v on 4 workers: %d results, byte-identical to one worker: %v\n",
		axis, len(parallel), string(pb) == string(sb))
	for _, r := range parallel {
		hpl := r.Runs[0].Measurement
		fmt.Printf("  p=%-3d HPL %8.4g %s at %s\n",
			r.Procs, hpl.Performance, hpl.Metric, hpl.Power)
	}
}
