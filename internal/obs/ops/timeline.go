package ops

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/units"
)

// Timeline records the wall-clock story of a sharded sweep's
// supervision — launches, losses, heartbeat gaps, bisections,
// quarantines — as spans and instants on per-shard tracks, exported as
// a second Chrome trace next to the campaign's virtual-time trace. It
// hears the supervisor's events through Observe. All methods are
// nil-receiver safe and the type is safe for concurrent use
// (supervisor goroutines report per shard).
type Timeline struct {
	mu     sync.Mutex
	start  time.Time
	spans  []obs.Span
	events []obs.Event
	open   map[int]openAttempt
}

type openAttempt struct {
	name  string
	start units.Seconds
	attrs []obs.Attr
}

// NewTimeline returns a timeline anchored at the current wall time.
func NewTimeline() *Timeline {
	return &Timeline{start: time.Now(), open: map[int]openAttempt{}}
}

// elapsed maps wall time onto the trace's seconds axis.
func (t *Timeline) elapsed() units.Seconds {
	return units.Seconds(time.Since(t.start).Seconds())
}

func track(shard int) string { return fmt.Sprintf("shard %d", shard) }

// Observe records one supervisor event: a launch opens an attempt span
// on the shard's track, a loss or finish closes it with that outcome,
// and a loss, quarantine, bisection or heartbeat gap drops an instant.
func (t *Timeline) Observe(e shard.Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.elapsed()
	instant := func(name string, attrs ...obs.Attr) {
		t.events = append(t.events, obs.Event{Track: track(e.Shard), Name: name, At: at, Attrs: attrs})
	}
	switch e.Kind {
	case shard.Started:
		t.open[e.Shard] = openAttempt{
			name:  fmt.Sprintf("attempt %d", e.Attempt+1),
			start: at,
			attrs: []obs.Attr{obs.Int("attempt", e.Attempt), obs.Int("cells", e.Cells)},
		}
	case shard.Lost:
		t.closeAttempt(e.Shard, at, "lost", e.Reason)
		instant("lost", obs.Str("reason", e.Reason))
	case shard.Finished:
		t.closeAttempt(e.Shard, at, "finished", "")
	case shard.Quarantined:
		instant("quarantine", obs.Int("procs", e.Procs), obs.Str("reason", e.Reason))
	case shard.Bisected:
		instant("bisect", obs.Str("left", fmt.Sprint(e.Left)), obs.Str("right", fmt.Sprint(e.Right)))
	case shard.BeatGap:
		instant("beat gap", obs.Int("missed", e.Missed))
	}
}

// closeAttempt finishes the shard's open attempt span, if any; the
// caller holds t.mu.
func (t *Timeline) closeAttempt(shard int, end units.Seconds, outcome, reason string) {
	a, ok := t.open[shard]
	if !ok {
		return
	}
	delete(t.open, shard)
	attrs := append(a.attrs, obs.Str("outcome", outcome))
	if reason != "" {
		attrs = append(attrs, obs.Str("reason", reason))
	}
	t.spans = append(t.spans, obs.Span{
		Track: track(shard), Name: a.name, Start: a.start, End: end, Attrs: attrs,
	})
}

// WriteFile exports the timeline as Chrome trace_event JSON. Attempts
// still open (a supervisor that never reported an outcome) are closed
// at the current instant so the trace stays well-formed. Spans are
// ordered by start time then track, so concurrent shards interleave
// stably regardless of goroutine scheduling.
func (t *Timeline) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	now := t.elapsed()
	shards := make([]int, 0, len(t.open))
	for shard := range t.open {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		t.closeAttempt(shard, now, "open", "")
	}
	spans := append([]obs.Span(nil), t.spans...)
	events := append([]obs.Event(nil), t.events...)
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start < spans[j].Start {
			return true
		}
		if spans[j].Start < spans[i].Start {
			return false
		}
		return spans[i].Track < spans[j].Track
	})
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At < events[j].At {
			return true
		}
		if events[j].At < events[i].At {
			return false
		}
		return events[i].Track < events[j].Track
	})
	return obs.WriteChromeTraceFile(path, spans, events)
}
