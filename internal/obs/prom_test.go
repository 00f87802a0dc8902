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

func TestCheckExposition(t *testing.T) {
	for _, tc := range []struct {
		name, text, want string // want: "" or a fragment of the error
	}{
		{"grouped families", "# TYPE a gauge\na{job=\"1\"} 1\na{job=\"2\"} 2\n# TYPE b gauge\nb{job=\"1\"} 3\n", ""},
		{"empty family keeps its type line", "# TYPE a gauge\n# TYPE b counter\nb 1\n", ""},
		{"histogram series belong to the histogram",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n# TYPE c counter\nc 1\n", ""},
		{"help and comments are skipped", "# HELP a help\n# TYPE a gauge\n# a comment\na 1\n", ""},
		{"type lines ahead of interleaved samples",
			"# TYPE a gauge\n# TYPE b gauge\na{job=\"1\"} 1\nb{job=\"1\"} 1\na{job=\"2\"} 1\nb{job=\"2\"} 1\n", "a sample outside"},
		{"histogram split by another family",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\n# TYPE c counter\nc 1\nh_count 2\n", "h_count sample outside"},
		{"a _count that is not a histogram's is its own family",
			"# TYPE g gauge\ng 1\ng_count 2\ng 3\n", "g sample outside"},
		{"type line twice", "# TYPE a gauge\na 1\n# TYPE a gauge\n", "# TYPE a"},
		{"malformed type line", "# TYPE a\n", "malformed TYPE"},
		{"malformed sample", "# TYPE a gauge\na{job=1} 1\n", "malformed sample"},
		{"not UTF-8", "# TYPE a gauge\na{t=\"\xff\"} 1\n", "UTF-8"},
	} {
		err := CheckExposition([]byte(tc.text))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
