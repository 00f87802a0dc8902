package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// FuzzWriteChromeTrace feeds hostile span/event/attr strings through the
// exporter and requires the output to stay valid JSON that passes the
// schema checker and decodes back to the input. This is the regression net for the %q bug: Go quoting
// emits \x00-style escapes that are not JSON, so a crafted benchmark
// name could corrupt the trace file.
func FuzzWriteChromeTrace(f *testing.F) {
	f.Add("HPL", "attempt 1", "key", "value")
	f.Add("quote\"track", "name with \\ backslash", "new\nline", "tab\there")
	f.Add("ctrl\x00\x01\x1f", "bell\a", "esc\x1b[31m", "del\x7f")
	f.Add("päper — σπαν", "emoji \U0001F600", "\u2028sep", "\u2029para")
	f.Add("bad\xff\xfeutf8", "trailing\xc3", "\xed\xa0\x80surrogate", "ok")
	f.Add("", "", "", "")
	f.Fuzz(func(t *testing.T, track, name, key, value string) {
		// The schema checker rejects empty names by design; give those a
		// fixed name so the fuzz exercises the escaping, not that rule.
		if name == "" {
			name = "n"
		}
		spans := []Span{{
			Track: track, Name: name, Start: 1, End: 2,
			Attrs: []Attr{{Key: key, Value: value}},
		}}
		events := []Event{{
			Track: track, Name: name, At: 3,
			Attrs: []Attr{{Key: value, Value: key}},
		}}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, spans, events); err != nil {
			t.Fatalf("exporter failed: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("trace is not valid JSON for track=%q name=%q key=%q value=%q:\n%s",
				track, name, key, value, buf.Bytes())
		}
		chk, err := ValidateChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("schema check failed: %v\n%s", err, buf.Bytes())
		}
		if chk.Spans != 1 || chk.Instants != 1 {
			t.Fatalf("check = %+v, want 1 span and 1 instant", chk)
		}

		// Validity alone does not catch a wrong escape: the trace must
		// decode back to its input, each invalid UTF-8 byte read as one
		// U+FFFD.
		var file struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Ph   string            `json:"ph"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
			t.Fatalf("trace does not decode: %v\n%s", err, buf.Bytes())
		}
		dec := func(s string) string { return string([]rune(s)) }
		var gotTrack string
		var gotSpan, gotEvent []string
		for _, ev := range file.TraceEvents {
			switch {
			case ev.Ph == "M" && ev.Name == "thread_name":
				gotTrack = ev.Args["name"]
			case ev.Ph == "X":
				gotSpan = append(gotSpan, ev.Name, argPair(ev.Args))
			case ev.Ph == "i":
				gotEvent = append(gotEvent, ev.Name, argPair(ev.Args))
			}
		}
		if want := dec(track); gotTrack != want {
			t.Errorf("track decodes to %q, want %q", gotTrack, want)
		}
		if want := []string{dec(name), dec(key) + "=" + dec(value)}; !slices.Equal(gotSpan, want) {
			t.Errorf("span decodes to %q, want %q", gotSpan, want)
		}
		if want := []string{dec(name), dec(value) + "=" + dec(key)}; !slices.Equal(gotEvent, want) {
			t.Errorf("event decodes to %q, want %q", gotEvent, want)
		}
	})
}

// argPair renders a one-attribute args object as key=value; any other
// size renders as a marker that matches no expectation.
func argPair(args map[string]string) string {
	if len(args) != 1 {
		return fmt.Sprintf("<%d args>", len(args))
	}
	for k, v := range args {
		return k + "=" + v
	}
	return ""
}
