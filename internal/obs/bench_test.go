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
