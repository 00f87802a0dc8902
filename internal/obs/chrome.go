package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteChromeTrace encodes spans and events in the Chrome trace_event
// JSON format, loadable in chrome://tracing and Perfetto. Virtual
// seconds map to trace microseconds (the format's native unit); each
// distinct track becomes one named thread under a single process, in
// first-appearance order; attributes become event args. The encoding is
// built by hand so identical inputs produce byte-identical files.
//
// Every span is checked before the first byte is written, so a span that
// ends before it starts returns an error and leaves w untouched. Records
// are then appended into one reused buffer and streamed through a
// bufio.Writer, so the cost per record does not grow with the trace.
func WriteChromeTrace(w io.Writer, spans []Span, events []Event) error {
	const recordSep = ",\n  " // between records; the first follows the header
	tids := map[string]int64{}
	var tracks []string
	register := func(track string) {
		if _, ok := tids[track]; !ok {
			tracks = append(tracks, track)
			tids[track] = int64(len(tracks))
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("obs: span %q on %q ends %v before it starts %v", s.Name, s.Track, s.End, s.Start)
		}
		register(s.Track)
	}
	for _, e := range events {
		register(e.Track)
	}

	bw := bufio.NewWriterSize(w, 64<<10)
	buf := make([]byte, 0, 512)
	// flush hands one finished record to bw and recycles buf. bw keeps
	// its first write error and returns it from the final Flush.
	flush := func() {
		_, _ = bw.Write(buf)
		buf = buf[:0]
	}
	// Names, tracks and attributes are user-influenced strings (custom
	// workload names, fault-plan errors): escape them with the JSON-safe
	// escaper, not %q, so hostile names cannot corrupt the file.
	appendArgs := func(attrs []Attr) {
		buf = append(buf, `, "args": {`...)
		for i, a := range attrs {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = AppendJSONString(buf, a.Key, false)
			buf = append(buf, ": "...)
			buf = a.AppendValue(buf, false)
		}
		buf = append(buf, "}}"...)
	}

	buf = append(buf, "{\"traceEvents\": [\n"...)
	buf = append(buf, `  {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "greenindex"}}`...)
	flush()
	for i, track := range tracks {
		id := int64(i + 1)
		buf = append(buf, recordSep+`{"name": "thread_name", "ph": "M", "pid": 1, "tid": `...)
		buf = strconv.AppendInt(buf, id, 10)
		buf = append(buf, `, "args": {"name": `...)
		buf = AppendJSONString(buf, track, false)
		buf = append(buf, `}}`+recordSep+`{"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": `...)
		buf = strconv.AppendInt(buf, id, 10)
		buf = append(buf, `, "args": {"sort_index": "`...)
		buf = strconv.AppendInt(buf, id, 10)
		buf = append(buf, `"}}`...)
		flush()
	}
	for _, s := range spans {
		buf = append(buf, recordSep+`{"name": `...)
		buf = AppendJSONString(buf, s.Name, false)
		buf = append(buf, `, "ph": "X", "ts": `...)
		buf = strconv.AppendFloat(buf, float64(s.Start)*1e6, 'f', 3, 64)
		buf = append(buf, `, "dur": `...)
		buf = strconv.AppendFloat(buf, float64(s.End-s.Start)*1e6, 'f', 3, 64)
		buf = append(buf, `, "pid": 1, "tid": `...)
		buf = strconv.AppendInt(buf, tids[s.Track], 10)
		appendArgs(s.Attrs)
		flush()
	}
	for _, e := range events {
		buf = append(buf, recordSep+`{"name": `...)
		buf = AppendJSONString(buf, e.Name, false)
		buf = append(buf, `, "ph": "i", "ts": `...)
		buf = strconv.AppendFloat(buf, float64(e.At)*1e6, 'f', 3, 64)
		buf = append(buf, `, "pid": 1, "tid": `...)
		buf = strconv.AppendInt(buf, tids[e.Track], 10)
		buf = append(buf, `, "s": "t"`...)
		appendArgs(e.Attrs)
		flush()
	}
	buf = append(buf, "\n], \"displayTimeUnit\": \"ms\"}\n"...)
	flush()
	return bw.Flush()
}

// WriteChromeTraceFile writes the trace to path.
func WriteChromeTraceFile(path string, spans []Span, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, spans, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TraceCheck summarises a validated Chrome trace file.
type TraceCheck struct {
	Spans    int // complete ("X") events
	Instants int // instant ("i") events
	Tracks   int // named threads
}

// ValidateChromeTrace parses data as a Chrome trace_event file and
// checks the schema this package emits: a traceEvents array whose
// entries carry a name, a known phase, non-negative timestamps, and a
// non-negative duration on complete events. It returns what it counted
// so smoke tests can assert a trace is not just valid but non-trivial.
func ValidateChromeTrace(data []byte) (TraceCheck, error) {
	var check TraceCheck
	var file struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int      `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return check, fmt.Errorf("obs: not a JSON trace: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		return check, fmt.Errorf("obs: trace has no traceEvents array (or it is empty)")
	}
	for i, ev := range file.TraceEvents {
		if ev.Name == "" {
			return check, fmt.Errorf("obs: traceEvents[%d] has no name", i)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				check.Tracks++
			}
			continue
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return check, fmt.Errorf("obs: complete event %q (traceEvents[%d]) lacks a non-negative dur", ev.Name, i)
			}
			check.Spans++
		case "i":
			check.Instants++
		default:
			return check, fmt.Errorf("obs: traceEvents[%d] %q has unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return check, fmt.Errorf("obs: event %q (traceEvents[%d]) lacks a non-negative ts", ev.Name, i)
		}
		if ev.Tid == nil {
			return check, fmt.Errorf("obs: event %q (traceEvents[%d]) has no tid", ev.Name, i)
		}
	}
	return check, nil
}

// ValidateChromeTraceFile reads and validates the trace at path.
func ValidateChromeTraceFile(path string) (TraceCheck, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return TraceCheck{}, err
	}
	return ValidateChromeTrace(b)
}
