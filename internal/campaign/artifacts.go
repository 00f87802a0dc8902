// Package campaign is the multi-tenant job layer of greenbench: it
// accepts sweep/suite job specs (over HTTP via Server, or directly via
// Manager.Submit), queues and executes them concurrently with per-job
// isolation — each job owns its directory, journal, obs tracer and live
// Hub — and exposes the whole lifecycle for observation: job states,
// progress and ETA, per-job NDJSON event streams, reports, Prometheus
// metrics, and flight-recorder dumps on cancellation or failure.
//
// The package lives on the wall-clock side of the two-plane
// architecture, next to internal/obs/live and internal/shard; the
// deterministic core (internal/suite and below) must never import it —
// greenvet's layering analyzer enforces that. Jobs execute through
// suite.RunCampaign, the same entry point the greenbench CLI uses, and
// write artefacts through the same Artifacts writer, so a campaign
// submitted over HTTP produces results, trace and metrics byte-identical
// to the same campaign run from the command line.
package campaign

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/suite"
)

// Artifacts names where one campaign's user-facing outputs land. Empty
// fields are skipped. The CLI and the campaign server both render
// through Write, which is what makes their bytes identical: there is
// exactly one code path from results to disk.
type Artifacts struct {
	// Results is the measurement JSON path (the input format of cmd/tgi).
	Results string
	// Trace is the Chrome trace_event JSON timeline path.
	Trace string
	// Metrics is the metrics-registry snapshot JSON path.
	Metrics string
	// Report is the human-readable run-report path; "-" renders to
	// ReportOut instead of a file.
	Report string
	// ReportOut receives the report when Report is "-" (the CLI's stdout).
	ReportOut io.Writer
	// Logf, when non-nil, receives one "wrote <path>" line per artefact.
	// It never influences artefact bytes.
	Logf func(format string, args ...any)
}

func (a Artifacts) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// Write renders the campaign's artefacts: results JSON, and — when the
// campaign was traced — the trace timeline, metrics snapshot and run
// report.
func (a Artifacts) Write(tracer *obs.Tracer, results []*suite.Result) error {
	if a.Results != "" {
		if err := suite.SaveJSON(a.Results, results); err != nil {
			return err
		}
		a.logf("wrote %s (%d run(s))", a.Results, len(results))
	}
	if tracer == nil {
		return nil
	}
	if a.Trace != "" {
		spans, events := tracer.Spans(), tracer.Events()
		if err := obs.WriteChromeTraceFile(a.Trace, spans, events); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		a.logf("wrote %s (%d span(s), %d event(s))", a.Trace, len(spans), len(events))
	}
	// One registry snapshot feeds both the metrics file and the report's
	// percentiles.
	var snap obs.Snapshot
	if a.Metrics != "" || a.Report != "" {
		snap = tracer.Registry().Snapshot()
	}
	if a.Metrics != "" {
		if err := snap.WriteFile(a.Metrics); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		a.logf("wrote %s", a.Metrics)
	}
	if a.Report != "" {
		title := "greenbench campaign"
		if len(results) > 0 {
			title = fmt.Sprintf("greenbench campaign: %s", results[0].System)
		}
		rep := suite.BuildReport(title, results)
		suite.AttachPercentiles(rep, snap)
		if a.Report == "-" {
			out := a.ReportOut
			if out == nil {
				out = os.Stdout
			}
			return rep.Render(out)
		}
		f, err := os.Create(a.Report)
		if err != nil {
			return err
		}
		if err := rep.Render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		a.logf("wrote %s", a.Report)
	}
	return nil
}
