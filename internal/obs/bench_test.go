package obs

import (
	"io"
	"testing"

	"repro/internal/units"
)

// faultyShape builds a trace the size and shape of one traced faulty
// campaign when the repair pass still marked every hole and outlier
// (about 1310 spans and 17 923 events; one event per repaired window
// leaves about 500): attempt and meter-window spans over five tracks,
// and instant events that are mostly repair marks carrying three or
// four attributes. Timestamps carry the fractional offset a campaign's
// first benchmark leaves on every later record. The size is kept so
// writer timings stay comparable across changes.
func faultyShape() ([]Span, []Event) {
	const nSpans, nEvents = 1310, 17923
	tracks := []string{"HPL", TrackMeter, "STREAM", "IOzone", TrackSuite}
	spans := make([]Span, nSpans)
	for i := range spans {
		start := units.Seconds(654.219255828 + float64(i)*97.25)
		if i%2 == 0 {
			spans[i] = Span{Track: tracks[i%4], Name: "attempt 1", Start: start, End: start + 50,
				Attrs: []Attr{Str("outcome", "ok"), Int("procs", 4), Int("node", i%8)}}
			continue
		}
		spans[i] = Span{Track: TrackMeter, Name: NameMeterWindow, Start: start, End: start + 574.219255828,
			Attrs: []Attr{Int("samples", 533), Int("dropped", 43), Int("glitched", 17), F64("mean_watts", 299.1530867149058)}}
	}
	events := make([]Event, nEvents)
	for i := range events {
		at := units.Seconds(654.219255828 + float64(i)*1.5)
		if i%3 == 0 {
			events[i] = Event{Track: tracks[i%5], Name: "fault: straggler", At: at,
				Attrs: []Attr{Int("attempt", 1), Int("node", i%8), F64("slowdown", 1.1111111111111112)}}
			continue
		}
		events[i] = Event{Track: TrackMeter, Name: "repair: gap filled", At: at,
			Attrs: []Attr{Str("bench", "HPL"), Int("from", i), Int("to", i+2), Int("filled", 1)}}
	}
	return spans, events
}

// BenchmarkWriteChromeTrace encodes faultyShape's trace.
func BenchmarkWriteChromeTrace(b *testing.B) {
	spans, events := faultyShape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, spans, events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(spans)+len(events)), "records/op")
}

// faultyCellOps is the metric-update mix one cell of the `faulty`
// benchmark workload records (a Fire sweep of 96 cells under the README
// fault plan with three retries, seed 1): its 4998 updates average 52
// per cell, rounded here to whole updates per name. Such a cell sets no
// gauge. Values are of the recorded magnitudes.
var faultyCellOps = []struct {
	kind, name string
	n          int
	v          float64
}{
	{OpCount, "suite.runs", 1, 1},
	{OpCount, "suite.attempts", 5, 1},
	{OpObserve, "suite.attempt_seconds", 5, 574.219255828},
	{OpObserve, "suite.attempt_seconds.HPL", 1, 654.219255828},
	{OpObserve, "suite.attempt_seconds.STREAM", 3, 50.5},
	{OpObserve, "suite.attempt_seconds.IOzone", 1, 157.894736842},
	{OpCount, "faults.crashes", 2, 1},
	{OpCount, "meter.windows", 3, 1},
	{OpCount, "meter.samples", 3, 533},
	{OpCount, "meter.samples_dropped", 3, 43},
	{OpCount, "meter.samples_glitched", 3, 17},
	{OpObserve, "meter.window_seconds", 3, 574.219255828},
	{OpCount, "repair.gaps_filled", 3, 42},
	{OpCount, "repair.outliers_rejected", 3, 17},
	{OpCount, "suite.benchmarks", 3, 1},
	{OpCount, "suite.benchmarks_recovered", 1, 1},
	{OpCount, "suite.retries", 3, 1},
	{OpCount, "suite.energy_joules", 3, 171454.35},
	{OpCount, "suite.wasted_seconds", 3, 80},
}

// BenchmarkTracerMetricOps records faultyCellOps once per op into a
// sweep worker's tracer. A worker keeps its tracer for the whole sweep,
// so a fresh tracer replaces it only every 96 cells, the `faulty`
// campaign's size.
func BenchmarkTracerMetricOps(b *testing.B) {
	const cellsPerTracer = 96
	ops := 0
	for _, op := range faultyCellOps {
		ops += op.n
	}
	tr := NewTracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%cellsPerTracer == 0 {
			tr = NewTracer()
		}
		for _, op := range faultyCellOps {
			for k := 0; k < op.n; k++ {
				switch op.kind {
				case OpCount:
					tr.Count(op.name, op.v)
				case OpGauge:
					tr.Gauge(op.name, op.v)
				case OpObserve:
					tr.Observe(op.name, op.v)
				}
			}
		}
	}
	b.ReportMetric(float64(ops), "ops/cell")
}
