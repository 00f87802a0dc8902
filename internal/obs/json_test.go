package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"unicode/utf8"
)

func TestJSONStringRoundTrips(t *testing.T) {
	cases := []string{
		"",
		"plain",
		"with \"quotes\" inside",
		"back\\slash",
		"tabs\tand\nnewlines\rand more",
		"null byte \x00 and bell \a and escape \x1b",
		"unicode: héllo wörld — σπαν",
		"line sep \u2028 and para sep \u2029",
		"emoji \U0001F600 outside BMP",
		"invalid utf8: \xff\xfe trailing",
		"attempt 1",
		"fault: node crash",
	}
	for _, in := range cases {
		enc := JSONString(in)
		if !json.Valid([]byte(enc)) {
			t.Errorf("JSONString(%q) = %s is not valid JSON", in, enc)
			continue
		}
		var out string
		if err := json.Unmarshal([]byte(enc), &out); err != nil {
			t.Errorf("JSONString(%q) does not decode: %v", in, err)
			continue
		}
		// Each invalid UTF-8 byte becomes one U+FFFD (the only lossy
		// case); every valid string must round-trip exactly.
		if want := string([]rune(in)); out != want {
			t.Errorf("JSONString(%q) round-tripped to %q, want %q", in, out, want)
		}
		if utf8.ValidString(in) && out != in {
			t.Errorf("JSONString(%q) round-tripped to %q", in, out)
		}
	}
}

// TestJSONStringMatchesEncodingJSONForPrintableASCII pins the property
// that kept the golden trace stable when %q was replaced: for the names
// the pipeline actually emits (printable ASCII), JSONString is
// byte-identical to %q.
func TestJSONStringMatchesQForPrintableASCII(t *testing.T) {
	names := []string{
		"window", "backoff", "attempt 3", "run p=8",
		"fault: node crash", "repair: gap filled", "rank 12", "HPL",
	}
	for _, n := range names {
		if got, want := JSONString(n), fmt.Sprintf("%q", n); got != want {
			t.Errorf("JSONString(%q) = %s, %%q gives %s", n, got, want)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON pins the escaper to
// encoding/json's string encoding under SetEscapeHTML(html), for both
// settings: the results file needs json.Marshal's bytes, the Chrome
// trace the unescaped ones.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", "<a href=\"x\">&amp;</a>",
		"line sep \xe2\x80\xa8 and para sep \xe2\x80\xa9",
		"back\bspace, form\ffeed, tab\t, newline\n, return\r",
		"nul \x00, bell \a, unit sep \x1f, del \x7f",
		"invalid \xff\xfe, truncated \xe2\x80, lone continuation \x80",
		"h\xc3\xa9llo \xf0\x9f\x98\x80 \xef\xbf\xbd",
	}
	for _, html := range []bool{false, true} {
		for _, s := range cases {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(s); err != nil {
				t.Fatal(err)
			}
			got := string(AppendJSONString(nil, s, html)) + "\n"
			if got != want.String() {
				t.Errorf("html=%v: AppendJSONString(%q) = %s, encoding/json gives %s", html, s, got, want.String())
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	hist := NewHistogram([]float64{1, 2, 4, 8})
	// 4 observations in (0,1], 4 in (1,2]: p50 lands exactly at the top
	// of the first bucket, p100 at the top of the second.
	for _, v := range []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0} {
		hist.Observe(v)
	}
	h := hist.Snap("lat")
	if v, ok := h.Quantile(0.5); !ok || v != 1 {
		t.Errorf("p50 = %v, %v; want 1", v, ok)
	}
	if v, ok := h.Quantile(1.0); !ok || v != 2 {
		t.Errorf("p100 = %v, %v; want 2", v, ok)
	}
	if v, ok := h.Quantile(0.25); !ok || v != 0.5 {
		t.Errorf("p25 = %v, %v; want 0.5 (interpolated from zero)", v, ok)
	}
	// Quantiles are monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("Quantile(%v) not ok", q)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistSnap
	if _, ok := empty.Quantile(0.5); ok {
		t.Error("empty histogram returned a quantile")
	}
	tr := NewTracer()
	tr.Observe("x", 1e6) // far above the default buckets: overflow
	h := tr.Registry().Snapshot().Histograms[0]
	top := DefaultBuckets[len(DefaultBuckets)-1]
	if v, ok := h.Quantile(0.99); !ok || v != top {
		t.Errorf("overflow p99 = %v, %v; want clamp to %v", v, ok, top)
	}
	if _, ok := h.Quantile(-0.1); ok {
		t.Error("negative q accepted")
	}
	if _, ok := h.Quantile(1.1); ok {
		t.Error("q > 1 accepted")
	}
}

// TestSnapshotJSONIncludesPercentiles pins the extended histogram line.
func TestSnapshotJSONIncludesPercentiles(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 100; i++ {
		tr.Observe("lat", float64(i))
	}
	var b jsonBuffer
	if err := tr.Registry().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Histograms []struct {
			Name string  `json:"name"`
			P50  float64 `json:"p50"`
			P95  float64 `json:"p95"`
			P99  float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, b)
	}
	if len(decoded.Histograms) != 1 {
		t.Fatalf("histograms = %+v", decoded.Histograms)
	}
	h := decoded.Histograms[0]
	if h.P50 <= 0 || h.P95 < h.P50 || h.P99 < h.P95 {
		t.Errorf("percentiles not ordered: %+v", h)
	}
}

type jsonBuffer string

func (b *jsonBuffer) Write(p []byte) (int, error) {
	*b += jsonBuffer(p)
	return len(p), nil
}
