// Traced campaign walkthrough: run a fault-injected TGI sweep with the
// observability pipeline on, and emit every artefact it produces —
//
//   - a Chrome trace_event timeline (load it in chrome://tracing or
//     Perfetto) where each benchmark, retry attempt, backoff wait and
//     meter window is a span and each injected fault a flagged instant,
//   - a metrics snapshot (counters, gauges, histograms) as JSON,
//   - the human-readable run report breaking the campaign down into the
//     time, energy, retries and meter repairs behind each TGI input.
//
// The example validates its own trace with the schema checker before
// exiting, so CI can run it as an end-to-end test of the exporters:
//
//	go run ./examples/traced -dir /tmp/traced
//
// Without -dir it writes into a new temporary directory and prints its
// path, so a run leaves nothing in the working directory.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/suite"
)

func main() {
	dir := flag.String("dir", "", "directory for the emitted artefacts (default: a new temporary directory)")
	flag.Parse()
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "traced-")
		if err != nil {
			log.Fatal(err)
		}
		*dir = tmp
		fmt.Printf("artefacts go to %s\n", tmp)
	} else if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}

	// A scenario with something to see: a scheduled node crash on HPL's
	// first attempt (forcing a backoff + retry), a guaranteed straggler,
	// and a lossy, glitchy meter (driving the repair pass).
	plan := &faults.Plan{
		Seed:      11,
		Crashes:   []faults.Crash{{Benchmark: suite.BenchHPL, Node: 1, At: 50, Attempt: 0}},
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.9},
		Meter:     &faults.Meter{DropRate: 0.08, GlitchRate: 0.02, GlitchWatts: 400},
	}

	// The sweep scheduler lays the cells out end to end on one timeline.
	tracer := obs.NewTracer()
	results, err := suite.RunSweepPlan(suite.SweepPlan{
		Axis:  []int{2, 4, 8},
		Trace: tracer,
		Configure: func(procs int) (suite.Config, error) {
			cfg := suite.SeededConfig(cluster.Testbed(), procs, 23)
			cfg.Faults = plan
			cfg.Retry = suite.RetryPolicy{MaxAttempts: 3, Backoff: 30}
			return cfg, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	tracePath := filepath.Join(*dir, "campaign.trace.json")
	if err := obs.WriteChromeTraceFile(tracePath, tracer.Spans(), tracer.Events()); err != nil {
		log.Fatal(err)
	}
	metricsPath := filepath.Join(*dir, "campaign.metrics.json")
	if err := tracer.Registry().Snapshot().WriteFile(metricsPath); err != nil {
		log.Fatal(err)
	}
	reportPath := filepath.Join(*dir, "campaign.report.txt")
	f, err := os.Create(reportPath)
	if err != nil {
		log.Fatal(err)
	}
	rep := suite.BuildReport("traced campaign: Testbed sweep under faults", results)
	if err := rep.Render(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// Self-check: the emitted trace must satisfy the trace_event schema
	// and actually show the injected faults and retries.
	chk, err := obs.ValidateChromeTraceFile(tracePath)
	if err != nil {
		log.Fatalf("emitted trace is invalid: %v", err)
	}
	if chk.Spans == 0 || chk.Instants == 0 || chk.Tracks < 3 {
		log.Fatalf("trace is implausibly empty: %+v", chk)
	}

	fmt.Printf("wrote %s (%d spans, %d fault/repair events, %d tracks)\n",
		tracePath, chk.Spans, chk.Instants, chk.Tracks)
	fmt.Printf("wrote %s\n", metricsPath)
	fmt.Printf("wrote %s\n\n", reportPath)
	if err := rep.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nopen the trace in chrome://tracing or https://ui.perfetto.dev")
}
