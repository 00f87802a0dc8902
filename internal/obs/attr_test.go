package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"unsafe"
)

// stringAttr is the attribute layout numbers used to be formatted into
// when recorded: the reference every encoding of an Attr must match.
type stringAttr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

func TestAttrSize(t *testing.T) {
	if n := unsafe.Sizeof(Attr{}); n > 40 {
		t.Errorf("Attr is %d bytes, want at most 40", n)
	}
}

// checkAttr holds a to the string attribute {key, text}: the same
// Text, the same JSON from json.Marshal and from an Encoder without
// HTML escaping, the same Chrome trace, and a decode that gives back
// the text.
func checkAttr(t *testing.T, a Attr, key, text string) {
	t.Helper()
	if got := a.Text(); got != text {
		t.Errorf("%+v: Text() = %q, want %q", a, got, text)
	}
	ref := stringAttr{Key: key, Value: text}
	got, err := json.Marshal([]Attr{a})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal([]stringAttr{ref})
	if !bytes.Equal(got, want) {
		t.Errorf("json.Marshal(%+v) = %s, want %s", a, got, want)
	}
	var gotEnc, wantEnc bytes.Buffer
	enc := json.NewEncoder(&gotEnc)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(Span{Attrs: []Attr{a}}); err != nil {
		t.Fatal(err)
	}
	enc = json.NewEncoder(&wantEnc)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(struct {
		Track string       `json:"track"`
		Name  string       `json:"name"`
		Start float64      `json:"start"`
		End   float64      `json:"end"`
		Attrs []stringAttr `json:"attrs,omitempty"`
	}{Attrs: []stringAttr{ref}})
	if !bytes.Equal(gotEnc.Bytes(), wantEnc.Bytes()) {
		t.Errorf("Encoder without HTML escaping: %s, want %s", gotEnc.Bytes(), wantEnc.Bytes())
	}
	var back []Attr
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	// Invalid UTF-8 decodes as U+FFFD, as it did for the string layout.
	var refBack []stringAttr
	_ = json.Unmarshal(want, &refBack)
	if len(back) != 1 || back[0] != Str(refBack[0].Key, refBack[0].Value) {
		t.Errorf("decoded %+v, want %+v", back, refBack)
	}
	var gotTrace, wantTrace bytes.Buffer
	if err := WriteChromeTrace(&gotTrace, []Span{{Track: "t", Name: "s", Attrs: []Attr{a}}}, nil); err != nil {
		t.Fatal(err)
	}
	_ = WriteChromeTrace(&wantTrace, []Span{{Track: "t", Name: "s", Attrs: []Attr{Str(key, text)}}}, nil)
	if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
		t.Errorf("Chrome trace of %+v:\n%s\nwant\n%s", a, gotTrace.Bytes(), wantTrace.Bytes())
	}
}

// FuzzAttrJSON checks each kind of attribute against the string layout:
// numbers against their strconv text, strings (HTML and invalid UTF-8
// included) against themselves.
func FuzzAttrJSON(f *testing.F) {
	f.Add("mean_watts", "<ok> & \u2028", int64(533), 299.1530867149058)
	f.Add("", "", int64(0), 0.0)
	f.Add("k\xff", "\xfe\"\\", int64(math.MinInt64), math.Copysign(0, -1))
	f.Add("wasted", "d", int64(-1), math.Inf(-1))
	f.Add("slowdown", "g", int64(math.MaxInt64), math.NaN())
	f.Add("energy_joules", "0", int64(100), 1e21)
	f.Fuzz(func(t *testing.T, key, s string, i int64, v float64) {
		checkAttr(t, Str(key, s), key, s)
		checkAttr(t, Int64(key, i), key, strconv.FormatInt(i, 10))
		checkAttr(t, Int(key, int(i)), key, strconv.Itoa(int(i)))
		checkAttr(t, F64(key, v), key, strconv.FormatFloat(v, 'g', -1, 64))
		checkAttr(t, Secs(key, 0.5), key, "0.5")
	})
}
