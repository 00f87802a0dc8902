package obs

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"suite.attempt_seconds": "suite_attempt_seconds",
		"meter.window_seconds":  "meter_window_seconds",
		"ok_name:sub":           "ok_name:sub",
		"7leading":              "_7leading",
		"spaces and-dashes":     "spaces_and_dashes",
		"":                      "_",
	}
	for in, want := range cases {
		if got := string(appendPromName(nil, in)); got != want {
			t.Errorf("appendPromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzPromLabel renders an arbitrary label value, as a client-supplied
// tenant header would arrive, and requires a well-formed sample line:
// one line, only the three escapes the text format allows, and a value
// that decodes back to the input with each invalid UTF-8 byte replaced
// by U+FFFD.
func FuzzPromLabel(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		var p PromWriter
		p.Uint("m", 1, "k", v)
		line := string(p.b)
		const prefix, suffix = `m{k="`, "\"} 1\n"
		if !strings.HasPrefix(line, prefix) || !strings.HasSuffix(line, suffix) ||
			strings.Count(line, "\n") != 1 {
			t.Fatalf("malformed sample line %q for %q", line, v)
		}
		if !utf8.ValidString(line) {
			t.Fatalf("sample line %q is not UTF-8", line)
		}
		escaped := line[len(prefix) : len(line)-len(suffix)]
		var dec strings.Builder
		for i := 0; i < len(escaped); i++ {
			c := escaped[i]
			switch {
			case c == '"':
				t.Fatalf("unescaped quote in %q", escaped)
			case c != '\\':
				dec.WriteByte(c)
				continue
			}
			i++
			if i == len(escaped) {
				t.Fatalf("dangling backslash in %q", escaped)
			}
			switch escaped[i] {
			case '\\', '"':
				dec.WriteByte(escaped[i])
			case 'n':
				dec.WriteByte('\n')
			default:
				t.Fatalf("illegal escape \\%c in %q", escaped[i], escaped)
			}
		}
		if want := string([]rune(v)); dec.String() != want {
			t.Fatalf("label %q decodes to %q, want %q", v, dec.String(), want)
		}
	})
}
