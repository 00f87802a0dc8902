package ops

import "repro/internal/obs"

// Wall-clock bucket scales. HTTP requests resolve sub-millisecond to
// tens of seconds (event streams stay open for the life of a job, so
// the top end is generous); queue waits and job runs span milliseconds
// to hours.
var (
	latencyBuckets  = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 600}
	durationBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60, 600, 3600}
)

// HistSummary is the compact /statusz rendering of a histogram: count,
// sum and the interpolated quantiles, without the raw buckets.
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

func summarize(s obs.HistSnap) HistSummary {
	p50, p95, p99 := s.Percentiles()
	return HistSummary{Count: s.Count, Sum: s.Sum, P50: p50, P95: p95, P99: p99}
}
