// Command greenperf is the repository's benchmark of record. It drives
// the TGI campaign pipeline only through its public entry points —
// suite.RunCampaign with campaign.Artifacts in process, and
// campaign.NewManager with campaign.NewServer over loopback — checks
// every campaign's output against a reference, and prints the metrics
// BENCHMARK.json names.
//
// Usage, from the repository root:
//
//	bash _greenperf/run.sh --workload sweep --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of the workload; with
// --trace 1 it prints the per-layer metrics, taken by timing the
// benchmark's own calls into each layer's public functions, and writes
// the spans it recorded as JSON under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setups is how many times a run builds its reference; setup_s is the
// median.
const setups = 15

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep, journaled, faulty or daemon")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: picks the process axis and the fault-plan seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "greenperf"), "directory for scratch files and span dumps")
	writeJSON := flag.String("write-benchmark-json", "", "write the BENCHMARK.json these metric tables define to this path and exit")
	flag.Parse()
	if *writeJSON != "" {
		if err := os.WriteFile(*writeJSON, benchmarkJSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "greenperf:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "greenperf: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := lookupWorkload(o.workload); !ok || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "greenperf: need --workload (%s) and --seconds >= 1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenperf:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// run performs one benchmark run, printing human-readable lines to w,
// and returns the result line.
func run(o options, w io.Writer) (*result, error) {
	in, err := makeInputs(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	printEnvironment(w, in)

	ref, setupTimes, err := setup(in, scratch, setups)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		return tracedRun(in, ref, scratch, o, budget, w)
	}
	var e *endToEnd
	if in.job != nil {
		e, err = runDaemon(in, ref, scratch, budget)
	} else {
		e, err = runInProcess(in, ref, scratch, budget)
	}
	if err != nil {
		return nil, err
	}
	if e.cells == 0 {
		return nil, fmt.Errorf("no campaign completed: %w", e.firstErr)
	}
	if e.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", e.firstErr)
	}
	tailMS, pct, n := tail(e.latencies)
	fmt.Fprintf(w, "campaigns %d (%d cells each)\n", len(e.latencies), in.cellsPerCampaign())
	fmt.Fprintf(w, "campaign_tail_ms %.6f ms (p%.2f of %d samples)\n", tailMS, pct, n)
	fmt.Fprintf(w, "op_error_ratio %g ratio (%d failed of %d attempted)\n",
		float64(e.failed)/float64(e.attempted), e.failed, e.attempted)
	return newResult(w, endToEndMetrics, e.metrics(setupTimes), e.attempted, e.failed), nil
}

// newResult prints every metric of defs with its unit and builds the
// result line from them.
func newResult(w io.Writer, defs []metricDef, values map[string]float64, attempted, failed int) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-30s %16.6f %s\n", d.Name, v, d.Unit)
	}
	return res
}

// printEnvironment records the run's inputs and the machine it ran on.
func printEnvironment(w io.Writer, in *inputs) {
	fmt.Fprintf(w, "greenperf workload=%s seed=%d go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		in.workload, in.seed, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "system=%s benchmarks=%s axis=%v\n", in.spec.Name, strings.Join(in.benchmarks, ","), in.axis)
	if in.plan != nil {
		b, _ := json.Marshal(in.plan) // a Plan always marshals
		fmt.Fprintf(w, "fault plan %s retries=%d\n", b, in.retry.MaxAttempts-1)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
