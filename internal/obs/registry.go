package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// DefaultBuckets are the histogram bounds used when a metric is observed
// without an explicit registration: a coarse log scale wide enough for
// both sub-second meter windows and multi-hour campaign times.
var DefaultBuckets = []float64{0.1, 1, 10, 60, 300, 1800, 7200, 43200}

// Registry is a tracer's metrics folded from its update log
// (Tracer.Registry): counters, gauges and histograms over DefaultBuckets,
// keyed by name. It snapshots deterministically (names sorted, values
// rendered with round-trip formatting).
type Registry struct {
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// Histogram is a fixed-bucket histogram: ascending upper bounds with an
// implicit overflow bucket. It is not safe for concurrent use on its
// own: the owning component's mutex guards it.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []uint64  // len(bounds)+1
	count  uint64
	sum    float64
}

// NewHistogram returns an empty histogram over bounds, which must be
// ascending. The histogram keeps bounds without copying.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe adds v to the bucket of the first bound at or above it.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
}

// Snap copies the histogram's state under the given name.
func (h *Histogram) Snap(name string) HistSnap {
	return HistSnap{
		Name:   name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

func newRegistry() *Registry {
	return &Registry{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Histogram{},
	}
}

// apply folds one metric update into the registry, creating a histogram
// with DefaultBuckets on its first observation.
func (r *Registry) apply(op *MetricOp) {
	switch op.Kind {
	case OpCount:
		r.counters[op.Name] += op.Value
	case OpGauge:
		r.gauges[op.Name] = op.Value
	case OpObserve:
		h, ok := r.hists[op.Name]
		if !ok {
			h = NewHistogram(DefaultBuckets)
			r.hists[op.Name] = h
		}
		h.Observe(op.Value)
	}
}

// MetricSnap is one counter or gauge in a snapshot.
type MetricSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistSnap is one histogram in a snapshot.
type HistSnap struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is overflow
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the histogram by
// linear interpolation within the bucket holding the target rank — the
// same estimate Prometheus's histogram_quantile computes. The first
// bucket interpolates from zero; observations in the overflow bucket
// clamp to the highest finite bound (the estimate cannot exceed what the
// buckets resolve). ok is false when the histogram is empty or q is out
// of range.
func (h HistSnap) Quantile(q float64) (v float64, ok bool) {
	if h.Count == 0 || q < 0 || q > 1 ||
		len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return 0, false
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i == len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1], true
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac, true
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1], true
}

// Percentiles returns the p50, p95 and p99 estimates, each 0 when the
// histogram is empty: the fixed shape that metrics.json and the ops
// plane's /statusz summaries both render.
func (h HistSnap) Percentiles() (p50, p95, p99 float64) {
	q := func(q float64) float64 {
		v, _ := h.Quantile(q) // 0 when empty
		return v
	}
	return q(0.50), q(0.95), q(0.99)
}

// Snapshot is a deterministic point-in-time copy of a registry.
type Snapshot struct {
	Counters   []MetricSnap `json:"counters,omitempty"`
	Gauges     []MetricSnap `json:"gauges,omitempty"`
	Histograms []HistSnap   `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state, sorted by metric name.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for name, v := range r.counters {
		s.Counters = append(s.Counters, MetricSnap{Name: name, Value: v})
	}
	for name, v := range r.gauges {
		s.Gauges = append(s.Gauges, MetricSnap{Name: name, Value: v})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.Snap(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON encodes the snapshot as indented JSON. The encoding is built
// by hand so that it is byte-deterministic (ordered fields, round-trip
// float formatting) — diffing two runs' metrics must be possible with
// standard tools.
func (s Snapshot) WriteJSON(w io.Writer) error {
	var b strings.Builder
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	b.WriteString("{\n")
	section := func(title string, items []MetricSnap, comma bool) {
		fmt.Fprintf(&b, "  %q: [\n", title)
		for i, m := range items {
			fmt.Fprintf(&b, "    {\"name\": %s, \"value\": %s}", JSONString(m.Name), num(m.Value))
			if i < len(items)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("  ]")
		if comma {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	section("counters", s.Counters, true)
	section("gauges", s.Gauges, true)
	fmt.Fprintf(&b, "  %q: [\n", "histograms")
	for i, h := range s.Histograms {
		fmt.Fprintf(&b, "    {\"name\": %s, \"bounds\": [", JSONString(h.Name))
		for j, bound := range h.Bounds {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(num(bound))
		}
		b.WriteString("], \"counts\": [")
		for j, c := range h.Counts {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatUint(c, 10))
		}
		p50, p95, p99 := h.Percentiles()
		fmt.Fprintf(&b, "], \"count\": %d, \"sum\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}",
			h.Count, num(h.Sum), num(p50), num(p95), num(p99))
		if i < len(s.Histograms)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  ]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFile writes the snapshot to path as deterministic JSON.
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
