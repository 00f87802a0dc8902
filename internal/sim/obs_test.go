package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestEngineStats(t *testing.T) {
	e := NewEngine(100)
	for i := 0; i < 5; i++ {
		if _, err := e.At(units.Seconds(i), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Events != 0 || s.PeakQueueDepth != 5 || s.Limit != 100 || s.Headroom != 100 {
		t.Errorf("pre-run stats = %+v", s)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.Events != 5 || s.PeakQueueDepth != 5 || s.Headroom != 95 {
		t.Errorf("post-run stats = %+v", s)
	}
}

func TestEngineStatsHeadroomAtLimit(t *testing.T) {
	e := NewEngine(2)
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.After(0, reschedule)
	_, err := e.RunAll()
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v", err)
	}
	if s := e.Stats(); s.Headroom != 0 {
		t.Errorf("headroom at limit = %d", s.Headroom)
	}
}

func TestEngineLimitErrorNamesVirtualTime(t *testing.T) {
	e := NewEngine(3)
	var reschedule func()
	reschedule = func() { e.After(2, reschedule) }
	e.After(0, reschedule)
	_, err := e.RunAll()
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v", err)
	}
	msg := err.Error()
	// Three events dispatch at t=0, 2, 4; the fourth (t=6) trips the
	// backstop with the clock still at 4.
	for _, want := range []string{"t=4 s", "3 events dispatched", "limit 3", "pending"} {
		if !strings.Contains(msg, want) {
			t.Errorf("limit error %q missing %q", msg, want)
		}
	}
}

// BenchmarkEngineDispatch measures the hot path: scheduling plus
// dispatching one event through the heap.
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine(uint64(b.N) + 1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	if _, err := e.After(0, tick); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}
