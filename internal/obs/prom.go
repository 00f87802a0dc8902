package obs

import (
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"
)

// PromWriter assembles a document in the Prometheus text exposition
// format (version 0.0.4). Every exporter of the wall-clock planes
// renders through it, so the format's rules live in one place: family
// names are sanitised into the metric-name charset, numbers render in
// shortest round-trip form, label values carry only the three escapes
// the format allows, and histograms render as cumulative le buckets
// plus _sum and _count. The zero value is ready to use; WriteTo emits
// the document.
//
// Labels are passed as key, value pairs. Keys are the caller's
// constants; values may come from outside the program (a tenant
// header) and are always escaped.
type PromWriter struct {
	b []byte
}

// Type writes the family's "# TYPE" line. kind is counter, gauge or
// histogram. An empty family keeps its Type line.
func (p *PromWriter) Type(name, kind string) {
	p.b = append(p.b, "# TYPE "...)
	p.b = appendPromName(p.b, name)
	p.b = append(p.b, ' ')
	p.b = append(p.b, kind...)
	p.b = append(p.b, '\n')
}

// Float writes one sample with a float value.
func (p *PromWriter) Float(name string, v float64, labels ...string) {
	p.series(name, labels)
	p.b = strconv.AppendFloat(p.b, v, 'g', -1, 64)
	p.b = append(p.b, '\n')
}

// Uint writes one sample with an integer value.
func (p *PromWriter) Uint(name string, v uint64, labels ...string) {
	p.series(name, labels)
	p.b = strconv.AppendUint(p.b, v, 10)
	p.b = append(p.b, '\n')
}

// Hist writes h as a histogram's series: cumulative le buckets, then
// _sum and _count, each carrying labels ahead of le. The caller writes
// the family's Type line, once for all label sets.
func (p *PromWriter) Hist(name string, h HistSnap, labels ...string) {
	bucket, le := name+"_bucket", append(labels[:len(labels):len(labels)], "le", "")
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		le[len(le)-1] = strconv.FormatFloat(bound, 'g', -1, 64)
		p.Uint(bucket, cum, le...)
	}
	le[len(le)-1] = "+Inf"
	p.Uint(bucket, h.Count, le...)
	p.Float(name+"_sum", h.Sum, labels...)
	p.Uint(name+"_count", h.Count, labels...)
}

// WriteTo writes the document assembled so far to w.
func (p *PromWriter) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.b)
	return int64(n), err
}

// series writes a sample's name and label set, up to the space before
// the value.
func (p *PromWriter) series(name string, labels []string) {
	p.b = appendPromName(p.b, name)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		p.b = append(p.b, sep)
		p.b = append(p.b, labels[i]...)
		p.b = append(p.b, '=', '"')
		p.b = appendPromLabelValue(p.b, labels[i+1])
		p.b = append(p.b, '"')
		sep = ','
	}
	if sep == ',' {
		p.b = append(p.b, '}')
	}
	p.b = append(p.b, ' ')
}

// appendPromName sanitises a metric name into the Prometheus identifier
// charset: dots and any other illegal rune become underscores, and a
// leading digit is prefixed with one.
func appendPromName(b []byte, name string) []byte {
	if name == "" {
		return append(b, '_')
	}
	for i, r := range name {
		switch {
		case r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0):
			b = append(b, byte(r))
		case r >= '0' && r <= '9': // leading digit
			b = append(b, '_', byte(r))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// appendPromLabelValue escapes a label value for the text format:
// backslash, double quote and line feed are the only escapes it allows,
// and the value must be UTF-8, so each invalid byte becomes U+FFFD.
func appendPromLabelValue(b []byte, v string) []byte {
	for _, r := range v {
		switch r {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return b
}

// promSampleLine is the text format's grammar for one sample line: a
// metric name, optional labels whose values use only the \\, \" and \n
// escapes, and a float value.
var promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
	`(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})?` +
	` [-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)$`)

// CheckExposition reports the first way text breaks the Prometheus
// text format: bytes that are not UTF-8, a sample line outside the
// sample grammar, or a family whose lines do not form one group — its
// # TYPE line, then every one of its samples, with _bucket, _sum and
// _count belonging to their histogram. Tests and CI hold every
// exposition the wall-clock planes serve to it.
//
//greenvet:allow unusedexport -- tests in other packages depend on it: the obs, live, ops and campaign tests
func CheckExposition(text []byte) error {
	if !utf8.Valid(text) {
		return errors.New("exposition is not UTF-8")
	}
	kinds := map[string]string{} // family -> kind, from its # TYPE line
	seen := map[string]bool{}    // families whose group has begun
	current := ""
	for i, line := range strings.Split(string(text), "\n") {
		if line == "" {
			continue
		}
		family := ""
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 2 || f[1] != "TYPE" {
				continue // HELP or a comment
			}
			if len(f) != 4 {
				return fmt.Errorf("line %d: malformed TYPE line %q", i+1, line)
			}
			family, kinds[f[2]] = f[2], f[3]
			if seen[family] {
				return fmt.Errorf("line %d: # TYPE %s after the family's first line", i+1, family)
			}
		} else {
			m := promSampleLine.FindStringSubmatch(line)
			if m == nil {
				return fmt.Errorf("line %d: malformed sample line %q", i+1, line)
			}
			family = m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(family, suffix); base != family && kinds[base] == "histogram" {
					family = base
				}
			}
			if family == current {
				continue
			}
			if seen[family] {
				return fmt.Errorf("line %d: %s sample outside its family's group", i+1, m[1])
			}
		}
		seen[family], current = true, family
	}
	return nil
}
