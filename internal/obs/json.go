package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s to dst as a JSON string literal, quotes
// included, and returns the extended slice. Its bytes are encoding/json's
// for a string under json.Encoder.SetEscapeHTML(html): with html set, <,
// > and & take six-byte \u00XX escapes, as json.Marshal writes them;
// without it they pass through, as the Chrome trace writes them. Either
// way U+2028 and U+2029 are escaped, \b and \f keep their short forms
// (Go 1.22 and later), other control characters become \u00XX, and each
// invalid UTF-8 byte becomes one \ufffd escape, so the string decodes
// back to string([]rune(s)). Go's %q verb, which the exporters once
// used, writes Go escapes (`\x07`, `\a`) that are not JSON; for printable
// ASCII the unescaped form agrees with it, so pinned goldens did not move.
func AppendJSONString(dst []byte, s string, html bool) []byte {
	dst = append(dst, '"')
	start := 0 // first byte of the pending run that needs no escape
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && (!html || c != '<' && c != '>' && c != '&') {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"':
				dst = append(dst, `\"`...)
			case '\\':
				dst = append(dst, `\\`...)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, `\u00`...)
				dst = append(dst, hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// Invalid UTF-8 byte: JSON strings must be valid Unicode.
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			// Legal in JSON but break JavaScript consumers; escape them
			// the way encoding/json does.
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\u202`...)
			dst = append(dst, hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f to dst as encoding/json writes a float64:
// the shortest 'f' form, or 'e' for a non-zero magnitude outside
// [1e-6, 1e21), with a one-digit negative exponent unpadded (e-7, not
// e-07). JSON has no NaN or infinity; for those it appends nothing and
// reports false, where encoding/json returns an UnsupportedValueError.
func AppendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// JSONString renders s as a JSON string literal (quotes included),
// without HTML escaping.
func JSONString(s string) string {
	return string(AppendJSONString(make([]byte, 0, len(s)+2), s, false))
}
