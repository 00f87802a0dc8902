package report

import (
	"io"
	"unicode/utf8"
)

// RunRow is one benchmark of one suite run, flattened for the run report.
// The fields mirror suite.BenchmarkRun but stay plain so the report
// package keeps no dependency on the pipeline it describes.
type RunRow struct {
	System           string
	Procs            int
	Bench            string
	Status           string // "ok", "recovered", "failed"
	Perf             float64
	Metric           string
	MeanWatts        float64
	PeakWatts        float64
	Seconds          float64
	WastedSeconds    float64
	EnergyJ          float64
	Retries          int
	GapsFilled       int
	OutliersRejected int
}

// PercentileRow summarises one benchmark's attempt-duration histogram:
// estimated p50/p95/p99 virtual seconds across every attempt (including
// retried and failed ones) the campaign ran for that benchmark.
type PercentileRow struct {
	Bench string
	Count uint64
	P50   float64
	P95   float64
	P99   float64
}

// KV is one line of a report's summary block.
type KV struct {
	Key   string
	Value string
}

// RunReport is the human-readable breakdown of a campaign: one row per
// (run, benchmark) showing where the time and energy behind the TGI
// number went, optional per-benchmark attempt-latency percentiles, plus
// a totals block.
type RunReport struct {
	Title       string
	Rows        []RunRow
	Percentiles []PercentileRow
	// PercentileTitle overrides the percentile table's caption; empty
	// means the suite default, "attempt seconds (virtual)".
	PercentileTitle string
	Summary         []KV
}

// runHeaders and percentileHeaders head the report's two tables.
var (
	runHeaders = []string{"system", "procs", "bench", "status", "perf", "metric",
		"watts", "peak", "time_s", "wasted_s", "energy_J", "retries", "repairs"}
	percentileHeaders = []string{"series", "count", "p50_s", "p95_s", "p99_s"}
)

// numBytes bounds the text of one number cell: an int64 or uint64 takes
// at most 20 bytes, a float in 'g' form with six digits at most 13.
const numBytes = 20

// headerBytes returns the bytes in headers.
func headerBytes(headers []string) int {
	n := 0
	for _, h := range headers {
		n += len(h)
	}
	return n
}

// Render writes the report as an aligned table, the percentile table
// when there are percentiles, and the summary, in one write.
func (r *RunReport) Render(w io.Writer) error {
	var runs cells
	size := headerBytes(runHeaders)
	for _, row := range r.Rows {
		// Eight number cells and the repairs cell, "<gaps>g/<outliers>o".
		size += len(row.System) + len(row.Bench) + len(row.Status) + len(row.Metric) + 10*numBytes + 3
	}
	runs.grow(len(r.Rows)+1, len(runHeaders), size)
	runs.row(runHeaders)
	for _, row := range r.Rows {
		runs.text(row.System)
		runs.integer(int64(row.Procs))
		runs.text(row.Bench)
		runs.text(row.Status)
		runs.num(row.Perf)
		runs.text(row.Metric)
		runs.num(row.MeanWatts)
		runs.num(row.PeakWatts)
		runs.num(row.Seconds)
		runs.num(row.WastedSeconds)
		runs.num(row.EnergyJ)
		runs.integer(int64(row.Retries))
		runs.repairs(row.GapsFilled, row.OutliersRejected)
		runs.endRow()
	}
	n := runs.size(r.Title)

	var pcts cells
	title := r.PercentileTitle
	if title == "" {
		title = "attempt seconds (virtual)"
	}
	if len(r.Percentiles) > 0 {
		size := headerBytes(percentileHeaders)
		for _, row := range r.Percentiles {
			size += len(row.Bench) + 4*numBytes
		}
		pcts.grow(len(r.Percentiles)+1, len(percentileHeaders), size)
		pcts.row(percentileHeaders)
		for _, row := range r.Percentiles {
			pcts.text(row.Bench)
			pcts.count(row.Count)
			pcts.num(row.P50)
			pcts.num(row.P95)
			pcts.num(row.P99)
			pcts.endRow()
		}
		n += 1 + pcts.size(title)
	}

	// The summary: each key padded to the longest, counted as the
	// tables count, then two spaces and the value.
	width := 0
	for _, kv := range r.Summary {
		width = max(width, len(kv.Key))
	}
	if len(r.Summary) > 0 {
		n++
	}
	for _, kv := range r.Summary {
		n += width + 2 + len(kv.Key) - utf8.RuneCountInString(kv.Key) + len(kv.Value) + 1
	}

	out := runs.appendTo(make([]byte, 0, n), r.Title)
	if len(r.Percentiles) > 0 {
		out = pcts.appendTo(append(out, '\n'), title)
	}
	if len(r.Summary) > 0 {
		out = append(out, '\n')
	}
	for _, kv := range r.Summary {
		out = append(out, kv.Key...)
		out = repeat(out, ' ', width+2-utf8.RuneCountInString(kv.Key))
		out = append(out, kv.Value...)
		out = append(out, '\n')
	}
	_, err := w.Write(out)
	return err
}
