package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sampleTrace() ([]Span, []Event) {
	spans := []Span{
		{Track: "suite", Name: "p=8", Start: 0, End: 120.5, Attrs: []Attr{Int("procs", 8)}},
		{Track: "HPL", Name: "attempt 1", Start: 0, End: 100, Attrs: []Attr{Str("status", "crashed")}},
		{Track: "HPL", Name: "attempt 2", Start: 100, End: 120.5, Attrs: []Attr{Str("status", "ok")}},
	}
	events := []Event{
		{Track: "HPL", Name: "crash", At: 100, Attrs: []Attr{Int("node", 3)}},
	}
	return spans, events
}

func TestWriteChromeTraceValidates(t *testing.T) {
	spans, events := sampleTrace()
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, spans, events); err != nil {
		t.Fatal(err)
	}
	check, err := ValidateChromeTrace(b.Bytes())
	if err != nil {
		t.Fatalf("own output rejected: %v\n%s", err, b.String())
	}
	if check.Spans != 3 || check.Instants != 1 || check.Tracks != 2 {
		t.Errorf("check = %+v", check)
	}
	out := b.String()
	// Virtual seconds land as microseconds.
	if !strings.Contains(out, `"ts": 100000000.000`) {
		t.Errorf("missing µs timestamp in:\n%s", out)
	}
	if !strings.Contains(out, `"name": "HPL"`) {
		t.Errorf("missing track metadata in:\n%s", out)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	spans, events := sampleTrace()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, spans, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, spans, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same records differ")
	}
}

// TestWriteChromeTraceRejectsNegativeSpan pins the all-or-nothing
// contract: a span that ends before it starts fails the whole trace
// before a byte reaches the writer, wherever it sits in the input.
func TestWriteChromeTraceRejectsNegativeSpan(t *testing.T) {
	spans, events := sampleTrace()
	bad := Span{Track: "t", Name: "bad", Start: 5, End: 1}
	for name, spans := range map[string][]Span{
		"alone": {bad},
		"first": append([]Span{bad}, spans...),
		"last":  append(spans[:len(spans):len(spans)], bad),
	} {
		var b bytes.Buffer
		err := WriteChromeTrace(&b, spans, events)
		if err == nil {
			t.Errorf("%s: span ending before its start accepted", name)
			continue
		}
		if want := `obs: span "bad" on "t" ends 1 s before it starts 5 s`; err.Error() != want {
			t.Errorf("%s: error %q, want %q", name, err, want)
		}
		if b.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error:\n%s", name, b.Len(), b.String())
		}
	}
}

func TestValidateChromeTraceRejectsDamage(t *testing.T) {
	for name, data := range map[string]string{
		"not json":    `{"traceEvents": [`,
		"empty":       `{"traceEvents": []}`,
		"no name":     `{"traceEvents": [{"ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]}`,
		"bad phase":   `{"traceEvents": [{"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 1}]}`,
		"no dur":      `{"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]}`,
		"negative ts": `{"traceEvents": [{"name": "x", "ph": "i", "ts": -1, "pid": 1, "tid": 1}]}`,
		"no tid":      `{"traceEvents": [{"name": "x", "ph": "i", "ts": 0, "pid": 1}]}`,
	} {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

var errWrite = errors.New("disk full")

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestWriteChromeTraceReportsWriteError covers a trace that fits the
// write buffer, whose error surfaces at the final flush, and one that
// spills it mid-stream.
func TestWriteChromeTraceReportsWriteError(t *testing.T) {
	small, smallEvents := sampleTrace()
	large, largeEvents := faultyShape()
	for name, err := range map[string]error{
		"small": WriteChromeTrace(failWriter{}, small, smallEvents),
		"large": WriteChromeTrace(failWriter{}, large, largeEvents),
	} {
		if !errors.Is(err, errWrite) {
			t.Errorf("%s: error %v, want %v", name, err, errWrite)
		}
	}
}
