package obs

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// appendJSONString appends s to dst as a JSON string literal, quotes
// included, and returns the extended slice. Go's %q verb — what the
// exporters previously used — emits Go string-literal escapes, which
// diverge from JSON for control characters (`\x07`, `\a`) and invalid
// UTF-8 (`\xff`): a span name carrying either produced an unloadable
// trace file. This escaper emits only JSON-legal sequences and is
// byte-identical to %q for the printable ASCII names the pipeline
// normally records, so pinned golden files do not move. Each invalid
// UTF-8 byte becomes one \ufffd escape, so the string decodes back to
// string([]rune(s)).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // first byte of the pending run that needs no escape
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"':
				dst = append(dst, `\"`...)
			case '\\':
				dst = append(dst, `\\`...)
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

// JSONString renders s as a JSON string literal (quotes included).
func JSONString(s string) string {
	return string(appendJSONString(make([]byte, 0, len(s)+2), s))
}
