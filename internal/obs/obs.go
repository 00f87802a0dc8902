// Package obs is the observability layer of the TGI pipeline: a
// zero-dependency metrics registry (counters, gauges, fixed-bucket
// histograms), virtual-time span tracing, and exporters (Chrome
// trace_event JSON, deterministic metrics snapshots).
//
// Instrumentation is strictly passive. A Recorder only ever *reads*
// values the pipeline has already computed — it draws no random numbers,
// advances no clocks and influences no control flow — so enabling or
// disabling tracing cannot change a run's results. A nil *Tracer is a
// valid recorder that discards everything, which lets call sites thread
// one field through unconditionally.
//
// Times are virtual seconds on the campaign clock maintained by the
// suite runner; the Chrome exporter maps them to trace microseconds so a
// sweep opens directly in chrome://tracing or Perfetto.
package obs

import (
	"strconv"

	"repro/internal/units"
)

// Attr is one key/value attribute on a span or event. Attributes are an
// ordered slice (not a map) and carry pre-formatted string values, so
// every encoding of the same record is byte-identical.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Int64 builds a 64-bit integer attribute.
func Int64(key string, v int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(v, 10)}
}

// F64 builds a float attribute with Go's shortest round-trip formatting.
func F64(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Secs builds a virtual-time attribute in seconds.
func Secs(key string, v units.Seconds) Attr { return F64(key, float64(v)) }

// Span is a closed interval of virtual time on a named track — one
// benchmark, one retry attempt, one meter window, one MPI rank.
type Span struct {
	Track string        `json:"track"`
	Name  string        `json:"name"`
	Start units.Seconds `json:"start"`
	End   units.Seconds `json:"end"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Event is an instantaneous occurrence — an injected fault, a repaired
// meter gap, an engine backstop trip.
type Event struct {
	Track string        `json:"track"`
	Name  string        `json:"name"`
	At    units.Seconds `json:"at"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Recorder receives completed spans, instant events and metric updates.
// Implementations must be safe for concurrent use and must never mutate
// what they observe.
type Recorder interface {
	Span(s Span)
	Event(e Event)
	// Count adds delta to the named counter.
	Count(name string, delta float64)
	// Gauge sets the named gauge to v.
	Gauge(name string, v float64)
	// Observe adds v to the named histogram (default buckets unless the
	// recorder's registry pinned explicit ones).
	Observe(name string, v float64)
}

// Discard is a Recorder that drops everything — the explicit "off"
// value. A nil *Tracer behaves identically; both must leave pipeline
// output byte-for-byte unchanged.
var Discard Recorder = discard{}

type discard struct{}

func (discard) Span(Span)               {}
func (discard) Event(Event)             {}
func (discard) Count(string, float64)   {}
func (discard) Gauge(string, float64)   {}
func (discard) Observe(string, float64) {}
