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
	"math"
	"strconv"

	"repro/internal/units"
)

// Attr is one key/value attribute on a span or event. Attributes are an
// ordered slice (not a map), so every encoding of the same record is
// byte-identical.
//
// A string attribute (Str) keeps its text in Value. A numeric one keeps
// its number's bits in num and its format in Value, "d" or "g", and is
// turned into text only where it is written: the Chrome trace and the
// journal append it (AppendValue), and other JSON goes through
// MarshalJSON. Recording one allocates nothing. num is zero on every
// string attribute, including one decoded from JSON, so a number whose
// bits are zero is kept as the string "0", which is its text. Text
// returns the text of either kind.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
	num   uint64
}

// The formats a numeric Attr keeps in Value.
const (
	formatInt   = "d"
	formatFloat = "g"
)

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Int64(key, int64(v)) }

// Int64 builds a 64-bit integer attribute.
func Int64(key string, v int64) Attr { return number(key, formatInt, uint64(v)) }

// F64 builds a float attribute with Go's shortest round-trip formatting.
func F64(key string, v float64) Attr { return number(key, formatFloat, math.Float64bits(v)) }

// Secs builds a virtual-time attribute in seconds.
func Secs(key string, v units.Seconds) Attr { return F64(key, float64(v)) }

// number builds a numeric attribute from its format and bits.
func number(key, format string, bits uint64) Attr {
	if bits == 0 {
		return Attr{Key: key, Value: "0"}
	}
	return Attr{Key: key, Value: format, num: bits}
}

// Text returns the attribute's value as the trace and JSON write it.
//
//greenvet:allow unusedexport -- tests in other packages read attribute values through it
func (a Attr) Text() string {
	if a.num == 0 {
		return a.Value
	}
	return string(a.appendText(make([]byte, 0, 24)))
}

// appendText appends the attribute's value, unquoted, to dst.
func (a Attr) appendText(dst []byte) []byte {
	switch {
	case a.num == 0:
		return append(dst, a.Value...)
	case a.Value == formatInt:
		return strconv.AppendInt(dst, int64(a.num), 10)
	default:
		return strconv.AppendFloat(dst, math.Float64frombits(a.num), 'g', -1, 64)
	}
}

// AppendValue appends the attribute's value to dst as a JSON string
// literal, escaped as AppendJSONString escapes with html. A number's
// text needs no escaping.
func (a Attr) AppendValue(dst []byte, html bool) []byte {
	if a.num == 0 {
		return AppendJSONString(dst, a.Value, html)
	}
	return append(a.appendText(append(dst, '"')), '"')
}

// MarshalJSON encodes the attribute as {"k":…,"v":"…"}, the value always
// a string: the bytes encoding/json writes for a struct of the two
// string fields. encoding/json applies its own HTML escaping to the
// result, so the strings are escaped without it here.
//
//greenvet:allow unusedexport -- encoding/json calls it through json.Marshaler for the flight recorder's events
func (a Attr) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(a.Key)+len(a.Value)+32)
	b = AppendJSONString(append(b, `{"k":`...), a.Key, false)
	b = a.AppendValue(append(b, `,"v":`...), false)
	return append(b, '}'), nil
}

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
