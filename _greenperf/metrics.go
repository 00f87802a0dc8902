package main

import "encoding/json"

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are reported by every untraced run, per workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"campaign_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_cell", "ms", "lower", 0.25},
	{"alloc_bytes_per_cell", "B", "lower", 0.15},
	{"allocs_per_cell", "count", "lower", 0.15},
}

// perLayerMetrics are reported by every traced run, per workload. Counts,
// times and bytes are per campaign unless the name says otherwise; a
// layer the workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	// internal/bench, the workload models and internal/sim.
	{Name: "bench.simulate_calls", Unit: "count", Better: "lower"},
	{Name: "bench.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.simulate_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	// internal/power.
	{Name: "power.measure_calls", Unit: "count", Better: "lower"},
	{Name: "power.measure_ms", Unit: "ms", Better: "lower"},
	{Name: "power.samples", Unit: "count", Better: "lower"},
	// internal/series.
	{Name: "series.repair_calls", Unit: "count", Better: "lower"},
	{Name: "series.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "series.gaps_filled", Unit: "count", Better: "lower"},
	{Name: "series.outliers_rejected", Unit: "count", Better: "lower"},
	// internal/suite resilience.
	{Name: "suite.attempts", Unit: "count", Better: "lower"},
	{Name: "suite.useful_attempt_ratio", Unit: "ratio", Better: "higher"},
	{Name: "suite.benchmarks_degraded", Unit: "count", Better: "lower"},
	// internal/suite scheduler.
	{Name: "suite.cell_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "suite.cell_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "suite.worker_idle_ms", Unit: "ms", Better: "lower"},
	{Name: "suite.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "suite.speedup_w2_over_w1", Unit: "ratio", Better: "higher"},
	// internal/suite journal.
	{Name: "journal.records", Unit: "count", Better: "lower"},
	{Name: "journal.record_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.record_p50_us", Unit: "us", Better: "lower"},
	{Name: "journal.bytes_written", Unit: "B", Better: "lower"},
	{Name: "journal.final_bytes", Unit: "B", Better: "lower"},
	// internal/obs.
	{Name: "obs.spans", Unit: "count", Better: "lower"},
	{Name: "obs.events", Unit: "count", Better: "lower"},
	// internal/campaign Artifacts and internal/report.
	{Name: "render.ms", Unit: "ms", Better: "lower"},
	{Name: "render.results_ms", Unit: "ms", Better: "lower"},
	{Name: "render.trace_ms", Unit: "ms", Better: "lower"},
	{Name: "render.metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "render.report_ms", Unit: "ms", Better: "lower"},
	{Name: "render.bytes", Unit: "B", Better: "lower"},
	// internal/campaign daemon.
	{Name: "campaign.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.finish_to_client_ms", Unit: "ms", Better: "lower"},
	// internal/obs/live.
	{Name: "live.events_streamed", Unit: "count", Better: "lower"},
	{Name: "live.dropped", Unit: "count", Better: "lower"},
	// Go runtime.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	// Self time per layer, from the benchmark's spans.
	{Name: "self.campaign_ms", Unit: "ms", Better: "lower"},
	{Name: "self.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "self.render_ms", Unit: "ms", Better: "lower"},
	{Name: "self.faults_ms", Unit: "ms", Better: "lower"},
	// Tracing overhead: the workload's in-process campaign with and
	// without the benchmark's cell spans.
	{Name: "trace.cells_per_s_untraced", Unit: "1/s", Better: "higher"},
	{Name: "trace.cells_per_s_traced", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// runSeconds is how long one run of record measures: BENCHMARK.json's
// run_seconds.
const runSeconds = 50

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// benchmarkJSON renders BENCHMARK.json from the benchmark's own tables,
// so the file and the program cannot drift apart.
func benchmarkJSON() []byte {
	b, err := json.MarshalIndent(benchmarkFile{
		Command:    []string{"bash", "_greenperf/run.sh"},
		Paths:      []string{"_greenperf"},
		RunSeconds: runSeconds,
		Workloads:  recordWorkloads,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}, "", "  ")
	if err != nil {
		panic(err) // the tables are plain values and always marshal
	}
	return append(b, '\n')
}
