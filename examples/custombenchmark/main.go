// Extend the TGI suite with additional and custom benchmarks, measured
// natively on the host.
//
// TGI is "neither limited by the metrics used in each benchmark nor by the
// number of benchmarks" (paper, Section IV-A). This example runs the
// toolkit's native benchmark implementations on the host — the real
// distributed LU factorisation (HPL), the real STREAM triad kernel, and the
// IOzone-style write test against the in-memory filesystem — plus a
// user-defined sort benchmark, and folds all four into one TGI against a
// recorded reference.
//
// Host power cannot be measured without a meter, so both systems use an
// assumed constant draw; the point here is the suite-extension mechanics
// (mixed metrics, four components, custom weights), not absolute watts.
//
//	go run ./examples/custombenchmark
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	greenindex "repro"
	"repro/internal/hpl"
	"repro/internal/iozone"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/units"
)

// assumedHostWatts stands in for a wall meter on this machine.
const assumedHostWatts = 120

// measureSort is the user-defined benchmark: keys sorted per second.
func measureSort() (opsPerSec float64, elapsed units.Seconds) {
	const n = 1 << 20
	rng := sim.NewRNG(7)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	start := time.Now()
	sort.Float64s(keys)
	el := time.Since(start)
	return n / el.Seconds(), units.FromDuration(el)
}

func main() {
	// Buffered, so a failed write surfaces at Flush and exits 1
	// instead of losing the study silently.
	out := bufio.NewWriter(os.Stdout)
	var test []greenindex.Measurement

	// 1. Native HPL: a real distributed LU over the in-process MPI runtime,
	// residual-verified.
	hplRes, err := hpl.Run(hpl.Config{N: 384, NB: 32, Procs: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	if !hplRes.Passed {
		log.Fatalf("HPL residual check failed: %v", hplRes.Residual)
	}
	fmt.Fprintf(out, "HPL     : N=%d grid %dx%d  %.2f GFLOPS  residual %.3f (passed)\n",
		hplRes.N, hplRes.P, hplRes.Q, hplRes.GFLOPS, hplRes.Residual)
	test = append(test, greenindex.Measurement{
		Benchmark: "HPL", Metric: "GFLOPS",
		Performance: hplRes.GFLOPS, Power: assumedHostWatts,
		Time: units.FromDuration(hplRes.Elapsed),
	})

	// 2. Native STREAM triad.
	st, err := stream.Run(stream.Triad, stream.Config{N: 1 << 21, Trials: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "STREAM  : triad best %s over %d trials\n", st.Best, st.Trials)
	test = append(test, greenindex.Measurement{
		Benchmark: "STREAM", Metric: "MBPS",
		Performance: float64(st.Best) / 1e6, Power: assumedHostWatts,
		Time: st.BestTime * units.Seconds(st.Trials),
	})

	// 3. IOzone write test against the in-memory block filesystem.
	dev, err := storage.NewMemDevice(1 << 15)
	if err != nil {
		log.Fatal(err)
	}
	fs, err := storage.NewFS(dev)
	if err != nil {
		log.Fatal(err)
	}
	tgt, err := iozone.NewFSTarget(fs, "bench.dat")
	if err != nil {
		log.Fatal(err)
	}
	ioRes, err := iozone.Run(tgt, iozone.Config{FileBytes: 32 << 20, RecordBytes: 1 << 20}, iozone.Write)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "IOzone  : write %s (1 MiB records)\n", ioRes[0].Rate)
	test = append(test, greenindex.Measurement{
		Benchmark: "IOzone", Metric: "MBPS",
		Performance: float64(ioRes[0].Rate) / 1e6, Power: assumedHostWatts,
		Time: ioRes[0].Elapsed,
	})

	// 4. The custom benchmark: TGI accepts any (name, metric, perf, power,
	// time) tuple.
	ops, el := measureSort()
	fmt.Fprintf(out, "Sort    : %.4g keys/s\n", ops)
	test = append(test, greenindex.Measurement{
		Benchmark: "Sort", Metric: "keys/s",
		Performance: ops, Power: assumedHostWatts, Time: el,
	})

	// Reference values recorded on a (hypothetical) older lab machine.
	ref := []greenindex.Measurement{
		{Benchmark: "HPL", Metric: "GFLOPS", Performance: 0.8, Power: 180, Time: 30},
		{Benchmark: "STREAM", Metric: "MBPS", Performance: 4000, Power: 180, Time: 20},
		{Benchmark: "IOzone", Metric: "MBPS", Performance: 300, Power: 180, Time: 60},
		{Benchmark: "Sort", Metric: "keys/s", Performance: 2e6, Power: 180, Time: 2},
	}

	// Equal weights over four components...
	res, err := greenindex.Compute(test, ref, greenindex.ArithmeticMean, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "\nTGI (four benchmarks, equal weights) = %.3f\n", res.TGI)
	for i, b := range res.Benchmarks {
		fmt.Fprintf(out, "  %-7s REE=%.3f\n", b, res.REE[i])
	}

	// ...or emphasise the custom workload.
	res, err = greenindex.Compute(test, ref, greenindex.Custom, []float64{0.1, 0.1, 0.1, 0.7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "TGI (sort-heavy custom weights)      = %.3f\n", res.TGI)
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
}
