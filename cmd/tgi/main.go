// Command tgi computes The Green Index from suite-result JSON files (as
// written by cmd/greenbench).
//
// Usage:
//
//	tgi -results fire.json -ref ref.json
//	tgi -results fire.json -ref ref.json -scheme energy
//	tgi -results fire.json -ref ref.json -scheme time-weighted
//	tgi -results fire.json -ref ref.json -scheme custom -weights 0.5,0.3,0.2
//	tgi -results fire.json -ref ref.json -mean harmonic
//
// When the results file holds a sweep, one TGI line is printed per point.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/suite"
)

func parseWeights(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	resultsPath := flag.String("results", "", "system-under-test results JSON (required)")
	refPath := flag.String("ref", "", "reference-system results JSON (required)")
	schemeName := flag.String("scheme", "am", "weighting: am, time, energy, power, custom (or the printed name, e.g. time-weighted)")
	meanName := flag.String("mean", "arithmetic", "aggregation mean: arithmetic, harmonic, geometric")
	weightsArg := flag.String("weights", "", "comma-separated custom weights (scheme=custom)")
	verbose := flag.Bool("v", false, "print the per-benchmark breakdown")
	flag.Parse()

	if err := run(*resultsPath, *refPath, *schemeName, *meanName, *weightsArg, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "tgi:", err)
		os.Exit(1)
	}
}

func run(resultsPath, refPath, schemeName, meanName, weightsArg string, verbose bool) error {
	if resultsPath == "" || refPath == "" {
		return fmt.Errorf("both -results and -ref are required")
	}
	scheme, err := core.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	agg, err := core.ParseAggregator(meanName)
	if err != nil {
		return err
	}
	weights, err := parseWeights(weightsArg)
	if err != nil {
		return err
	}
	if scheme == core.Custom && weights == nil {
		return fmt.Errorf("-scheme custom requires -weights")
	}
	results, err := suite.LoadJSON(resultsPath)
	if err != nil {
		return err
	}
	refs, err := suite.LoadJSON(refPath)
	if err != nil {
		return err
	}
	if len(refs) != 1 {
		return fmt.Errorf("reference file must hold exactly one run, has %d", len(refs))
	}
	refMs := refs[0].Measurements()

	t := &report.Table{
		Title:   fmt.Sprintf("TGI (%v weights) vs reference %s", scheme, refs[0].System),
		Headers: []string{"System", "Procs", "TGI"},
	}
	for _, r := range results {
		var c *core.Components
		if r.Degraded {
			// A degraded suite run lost benchmarks to unrecovered faults:
			// compute the partial TGI over the survivors, with the weights
			// renormalised (custom weights stay positional over the full
			// expected list).
			c, err = core.ComputePartialAggregated(agg, r.Measurements(), refMs,
				scheme, weights, r.Benchmarks())
		} else {
			c, err = core.ComputeAggregated(agg, r.Measurements(), refMs, scheme, weights)
		}
		if err != nil {
			return fmt.Errorf("%s procs=%d: %w", r.System, r.Procs, err)
		}
		tgiCell := fmt.Sprintf("%.4f", c.TGI)
		if c.Degraded {
			tgiCell += fmt.Sprintf(" (degraded: missing %s)", strings.Join(c.Missing, ", "))
		}
		t.AddRow(r.System, fmt.Sprintf("%d", r.Procs), tgiCell)
		if verbose {
			for i, b := range c.Benchmarks {
				t.AddRow("  "+b, "",
					fmt.Sprintf("EE=%.4g REE=%.4f W=%.3f", c.EE[i], c.REE[i], c.Weights[i]))
			}
		}
	}
	return t.Render(os.Stdout)
}
