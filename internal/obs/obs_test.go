package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	tr := NewTracer()
	tr.Count("runs", 1)
	tr.Count("runs", 2)
	tr.Gauge("procs", 64)
	tr.Gauge("procs", 128)
	s := tr.Registry().Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Name != "runs" || s.Counters[0].Value != 3 {
		t.Errorf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 128 {
		t.Errorf("gauges = %+v", s.Gauges)
	}
}

// TestRegistryHistogram: a folded histogram uses DefaultBuckets.
func TestRegistryHistogram(t *testing.T) {
	tr := NewTracer()
	for _, v := range []float64{0.05, 0.1, 5, 50, 1e5} {
		tr.Observe("lat", v)
	}
	h := tr.Registry().Snapshot().Histograms[0]
	if !reflect.DeepEqual(h.Bounds, DefaultBuckets) {
		t.Errorf("bounds = %v, want DefaultBuckets %v", h.Bounds, DefaultBuckets)
	}
	// 0.05 and 0.1 land in bucket <=0.1; 5 in <=10; 50 in <=60; 1e5 overflows.
	want := []uint64{2, 0, 1, 1, 0, 0, 0, 0, 1}
	if !reflect.DeepEqual(h.Counts, want) {
		t.Errorf("counts = %v, want %v", h.Counts, want)
	}
	if h.Count != 5 || h.Sum != 100055.15 {
		t.Errorf("count=%d sum=%v", h.Count, h.Sum)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snap("lat")
	// 0.5 and 1 land in bucket <=1; 5 in <=10; 50 in <=100; 500 overflows.
	want := HistSnap{Name: "lat", Bounds: []float64{1, 10, 100}, Counts: []uint64{2, 1, 1, 1}, Count: 5, Sum: 556.5}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("snap = %+v, want %+v", s, want)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func(order []string) string {
		tr := NewTracer()
		for _, name := range order {
			tr.Count(name, 1)
			tr.Gauge(name, 2)
			tr.Observe(name, 3)
		}
		var b bytes.Buffer
		if err := tr.Registry().Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if a != b {
		t.Errorf("snapshot JSON depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"counters"`) || !strings.Contains(a, `"histograms"`) {
		t.Errorf("snapshot JSON missing sections:\n%s", a)
	}
}

// TestTracerFoldsInRecordingOrder: a tracer's metrics are its updates
// folded in recording order. Floating-point addition is not associative,
// so a counter that saw 0.1, 0.2 and 0.3 holds (0.1+0.2)+0.3, not 0.6;
// a histogram's sum likewise. A gauge holds the last value set.
func TestTracerFoldsInRecordingOrder(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	want := (a + b) + c
	if want != 0.6000000000000001 {
		t.Fatalf("(0.1+0.2)+0.3 = %v, want 0.6000000000000001", want)
	}
	tr := NewTracer()
	for _, v := range []float64{a, b, c} {
		tr.Count("x", v)
		tr.Observe("h", v)
		tr.Gauge("g", v)
	}
	s := tr.Registry().Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != want {
		t.Errorf("counters = %+v, want x = %v", s.Counters, want)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Sum != want || s.Histograms[0].Count != 3 {
		t.Errorf("histograms = %+v, want h with 3 observations summing to %v", s.Histograms, want)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != c {
		t.Errorf("gauges = %+v, want g = %v", s.Gauges, c)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Span(Span{Track: "t", Name: "n"})
	tr.Event(Event{Track: "t", Name: "n"})
	tr.Count("c", 1)
	tr.Gauge("g", 1)
	tr.Observe("h", 1)
	if tr.Spans() != nil || tr.Events() != nil || tr.Registry() != nil {
		t.Error("nil tracer retained state")
	}
	tr.Replay([]Span{{}}, nil, []MetricOp{{Kind: OpCount, Name: "c", Value: 1}})
	if spans, _, ops := tr.Since(tr.Mark()); spans != nil || ops != nil {
		t.Error("nil tracer replayed records")
	}
	// Discard must accept everything silently too.
	Discard.Span(Span{})
	Discard.Event(Event{})
	Discard.Count("c", 1)
	Discard.Gauge("g", 1)
	Discard.Observe("h", 1)
}

func TestTracerMarkSinceReplay(t *testing.T) {
	tr := NewTracer()
	tr.Span(Span{Track: "a", Name: "s1"})
	m := tr.Mark()
	tr.Span(Span{Track: "a", Name: "s2"})
	tr.Event(Event{Track: "a", Name: "e1"})
	tr.Count("n", 2)
	spans, events, ops := tr.Since(m)
	if len(spans) != 1 || spans[0].Name != "s2" || len(events) != 1 || len(ops) != 1 {
		t.Fatalf("Since = %v, %v, %v", spans, events, ops)
	}
	tr2 := NewTracer()
	tr2.Replay(spans, events, ops)
	if len(tr2.Spans()) != 1 || len(tr2.Events()) != 1 {
		t.Error("replay lost records")
	}
	if s := tr2.Registry().Snapshot(); len(s.Counters) != 1 || s.Counters[0].Value != 2 {
		t.Errorf("replayed counters = %+v, want n = 2", s.Counters)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines; run with
// -race this pins that concurrent span recording is safe.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	const workers, each = 16, 200
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Span(Span{Track: "w", Name: "s", Attrs: []Attr{Int("worker", w)}})
				tr.Event(Event{Track: "w", Name: "e"})
				tr.Count("n", 1)
				tr.Observe("h", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != workers*each {
		t.Errorf("spans = %d, want %d", got, workers*each)
	}
	s := tr.Registry().Snapshot()
	if s.Counters[0].Value != workers*each {
		t.Errorf("counter = %v", s.Counters[0].Value)
	}
}
