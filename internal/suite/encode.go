package suite

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/obs"
)

// Bytes the indented encoding spends per result, per run and on a run's
// resilience fields beyond their strings, rounded up from the files of an
// extended-suite sweep and a faulted sweep, so that the buffer
// appendResults fills seldom has to grow.
const (
	resultBytes = 192
	runBytes    = 320
	faultBytes  = 80
)

// encodedSize estimates the length of appendResults' output.
func encodedSize(results []*Result) int {
	n := 8
	for _, r := range results {
		if r == nil {
			n += 8
			continue
		}
		n += resultBytes + len(r.System) + len(r.Placement)
		for _, w := range r.Warnings {
			n += len(w) + 16
		}
		for i := range r.Runs {
			b := &r.Runs[i]
			n += runBytes + len(b.Measurement.Benchmark) + len(b.Measurement.Metric)
			if b.Status != "" || b.Retries != 0 || b.Error != "" || b.WastedTime != 0 || b.GapsFilled != 0 || b.OutliersRejected != 0 {
				n += faultBytes + len(b.Status) + len(b.Error)
			}
		}
	}
	return n
}

// appendResults appends the bytes json.MarshalIndent(results, "", "  ")
// returns, plus a newline: the same field order, omitempty rules, HTML
// escaping and float format. A NaN or infinite float is the error
// encoding/json returns for it.
func appendResults(b []byte, results []*Result) ([]byte, error) {
	switch {
	case results == nil:
		return append(b, "null\n"...), nil
	case len(results) == 0:
		return append(b, "[]\n"...), nil
	}
	e := jsonEncoder{b: append(b, '[')}
	for i, r := range results {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		if r == nil {
			e.b = append(e.b, "\n  null"...)
			continue
		}
		if e.result(r); e.err != nil {
			return nil, e.err
		}
	}
	return append(e.b, "\n]\n"...), nil
}

// jsonEncoder carries the output and the first unencodable float, so
// the field writers need no error plumbing; a failed encoding's bytes
// are dropped whole. It writes the results file and the journal's
// traces.
type jsonEncoder struct {
	b   []byte
	err error
}

// result writes one Result object at depth 1 of the array.
func (e *jsonEncoder) result(r *Result) {
	e.b = append(e.b, "\n  {\n    \"system\": "...)
	e.b = obs.AppendJSONString(e.b, r.System, true)
	e.b = append(e.b, ",\n    \"procs\": "...)
	e.b = strconv.AppendInt(e.b, int64(r.Procs), 10)
	e.b = append(e.b, ",\n    \"active_nodes\": "...)
	e.b = strconv.AppendInt(e.b, int64(r.ActiveNodes), 10)
	e.b = append(e.b, ",\n    \"placement\": "...)
	e.b = obs.AppendJSONString(e.b, r.Placement, true)
	e.b = append(e.b, ",\n    \"runs\": "...)
	switch {
	case r.Runs == nil:
		e.b = append(e.b, "null"...)
	case len(r.Runs) == 0:
		e.b = append(e.b, "[]"...)
	default:
		e.b = append(e.b, '[')
		for i := range r.Runs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.run(&r.Runs[i])
		}
		e.b = append(e.b, "\n    ]"...)
	}
	if r.Degraded {
		e.b = append(e.b, ",\n    \"degraded\": true"...)
	}
	if len(r.Warnings) > 0 {
		e.b = append(e.b, ",\n    \"warnings\": ["...)
		for i, w := range r.Warnings {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, "\n      "...)
			e.b = obs.AppendJSONString(e.b, w, true)
		}
		e.b = append(e.b, "\n    ]"...)
	}
	e.b = append(e.b, "\n  }"...)
}

// run writes one BenchmarkRun object at depth 3.
func (e *jsonEncoder) run(r *BenchmarkRun) {
	m := &r.Measurement
	e.b = append(e.b, "\n      {\n        \"measurement\": {\n          \"benchmark\": "...)
	e.b = obs.AppendJSONString(e.b, m.Benchmark, true)
	e.b = append(e.b, ",\n          \"metric\": "...)
	e.b = obs.AppendJSONString(e.b, m.Metric, true)
	e.float(",\n          \"performance\": ", m.Performance)
	e.float(",\n          \"power\": ", float64(m.Power))
	e.float(",\n          \"time\": ", float64(m.Time))
	e.float(",\n          \"energy\": ", float64(m.Energy))
	e.float("\n        },\n        \"peak_power\": ", float64(r.PeakPower))
	e.integer(",\n        \"samples\": ", r.Samples)
	if r.Status != "" {
		e.b = append(e.b, ",\n        \"status\": "...)
		e.b = obs.AppendJSONString(e.b, string(r.Status), true)
	}
	if r.Retries != 0 {
		e.integer(",\n        \"retries\": ", r.Retries)
	}
	if r.Error != "" {
		e.b = append(e.b, ",\n        \"error\": "...)
		e.b = obs.AppendJSONString(e.b, r.Error, true)
	}
	if r.WastedTime != 0 {
		e.float(",\n        \"wasted_time\": ", float64(r.WastedTime))
	}
	if r.GapsFilled != 0 {
		e.integer(",\n        \"gaps_filled\": ", r.GapsFilled)
	}
	if r.OutliersRejected != 0 {
		e.integer(",\n        \"outliers_rejected\": ", r.OutliersRejected)
	}
	e.b = append(e.b, "\n      }"...)
}

func (e *jsonEncoder) integer(key string, v int) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// float writes key and f as encoding/json formats a float64: the
// shortest 'f' form, or 'e' for a non-zero magnitude outside
// [1e-6, 1e21) with a one-digit negative exponent unpadded (e-7, not
// e-07).
func (e *jsonEncoder) float(key string, f float64) {
	e.b = append(e.b, key...)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// appendTrace appends tr as json.MarshalIndent(…, "", "  ") writes it as
// a value of the journal's traces map: at depth 2, opening on the line
// of its key. A NaN or infinite time or value is the error
// encoding/json returns for it.
func appendTrace(b []byte, tr *CellTrace) ([]byte, error) {
	e := jsonEncoder{b: b}
	open := byte('{')
	field := func(key string) {
		e.b = append(append(e.b, open), "\n      "...)
		e.b = append(e.b, key...)
		open = ','
	}
	if len(tr.Spans) > 0 {
		field(`"spans": [`)
		for i := range tr.Spans {
			s := &tr.Spans[i]
			e.record(i, s.Track, s.Name)
			e.float(",\n          \"start\": ", float64(s.Start))
			e.float(",\n          \"end\": ", float64(s.End))
			e.attrs(s.Attrs)
		}
		e.b = append(e.b, "\n      ]"...)
	}
	if len(tr.Events) > 0 {
		field(`"events": [`)
		for i := range tr.Events {
			ev := &tr.Events[i]
			e.record(i, ev.Track, ev.Name)
			e.float(",\n          \"at\": ", float64(ev.At))
			e.attrs(ev.Attrs)
		}
		e.b = append(e.b, "\n      ]"...)
	}
	if len(tr.Ops) > 0 {
		field(`"ops": [`)
		for i, op := range tr.Ops {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = obs.AppendJSONString(append(e.b, "\n        {\n          \"k\": "...), op.Kind, true)
			e.b = obs.AppendJSONString(append(e.b, ",\n          \"n\": "...), op.Name, true)
			e.float(",\n          \"v\": ", op.Value)
			e.b = append(e.b, "\n        }"...)
		}
		e.b = append(e.b, "\n      ]"...)
	}
	if tr.End != 0 {
		field("")
		e.float(`"end": `, float64(tr.End))
	}
	if open == '{' {
		e.b = append(e.b, "{}"...)
	} else {
		e.b = append(e.b, "\n    }"...)
	}
	return e.b, e.err
}

// record opens the i-th span or event of an array with its track and
// name.
func (e *jsonEncoder) record(i int, track, name string) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
	e.b = obs.AppendJSONString(append(e.b, "\n        {\n          \"track\": "...), track, true)
	e.b = obs.AppendJSONString(append(e.b, ",\n          \"name\": "...), name, true)
}

// attrs writes a span's or event's attributes, when it has any, and
// closes the record.
func (e *jsonEncoder) attrs(attrs []obs.Attr) {
	if len(attrs) > 0 {
		e.b = append(e.b, ",\n          \"attrs\": ["...)
		for i, a := range attrs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = obs.AppendJSONString(append(e.b, "\n            {\n              \"k\": "...), a.Key, true)
			e.b = a.AppendValue(append(e.b, ",\n              \"v\": "...), true)
			e.b = append(e.b, "\n            }"...)
		}
		e.b = append(e.b, "\n          ]"...)
	}
	e.b = append(e.b, "\n        }"...)
}
