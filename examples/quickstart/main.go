// Quickstart: compute The Green Index for one system against a reference.
//
// This example reproduces the paper's headline computation end to end using
// the built-in simulated clusters: run the three-benchmark suite (HPL for
// CPU, STREAM for memory, IOzone for I/O) behind a simulated wall-plug
// meter on both machines, then aggregate the relative efficiencies into a
// single number.
//
//	go run ./examples/quickstart
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"

	greenindex "repro"
)

func main() {
	// Buffered, so a failed write surfaces at Flush and exits 1
	// instead of losing the study silently.
	out := bufio.NewWriter(os.Stdout)
	// 1. Measure the reference system (SystemG, 1024 cores) — the paper's
	// Table I. On real hardware these numbers would come from a wall meter.
	refRun, err := greenindex.RunSuite(greenindex.SystemG(), 1024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(out, "Reference measurements (SystemG @ 1024 cores):")
	for _, m := range refRun.Measurements() {
		fmt.Fprintf(out, "  %-7s %10.4g %-6s at %s over %s\n",
			m.Benchmark, m.Performance, m.Metric, m.Power, m.Time)
	}

	// 2. Measure the system under test (Fire, all 128 cores).
	testRun, err := greenindex.RunSuite(greenindex.Fire(), 128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(out, "\nSystem under test (Fire @ 128 cores):")
	for _, m := range testRun.Measurements() {
		fmt.Fprintf(out, "  %-7s %10.4g %-6s at %s over %s\n",
			m.Benchmark, m.Performance, m.Metric, m.Power, m.Time)
	}

	// 3. Aggregate into TGI with equal (arithmetic-mean) weights.
	res, err := greenindex.Compute(testRun.Measurements(), refRun.Measurements(),
		greenindex.ArithmeticMean, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(out, "\nPer-benchmark breakdown:")
	for i, b := range res.Benchmarks {
		fmt.Fprintf(out, "  %-7s EE=%-10.4g relative EE=%-8.4f weight=%.3f\n",
			b, res.EE[i], res.REE[i], res.Weights[i])
	}
	fmt.Fprintf(out, "\nTGI(Fire vs SystemG) = %.4f\n", res.TGI)
	fmt.Fprintln(out, "A value above 1 means Fire is more energy-efficient, system-wide,")
	fmt.Fprintln(out, "than the reference — and the per-benchmark rows show which")
	fmt.Fprintln(out, "subsystem is responsible (here I/O drags, memory carries).")
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
}
