package ops

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

// Timeline records the wall-clock story of a sharded sweep's
// supervision — launches, losses, heartbeat gaps, bisections,
// quarantines — as spans and instants on per-shard tracks, exported as
// a second Chrome trace next to the campaign's virtual-time trace. It
// satisfies shard.Monitor structurally (plus the BisectMonitor and
// BeatGapMonitor extensions), so it fans in alongside the live Hub via
// shard.Monitors. All methods are nil-receiver safe and the type is
// safe for concurrent use (supervisor goroutines report per shard).
type Timeline struct {
	mu     sync.Mutex
	now    func() time.Time
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
	now := time.Now
	return &Timeline{now: now, start: now(), open: map[int]openAttempt{}}
}

// elapsed maps wall time onto the trace's seconds axis; the caller
// holds t.mu.
func (t *Timeline) elapsed() units.Seconds {
	return units.Seconds(t.now().Sub(t.start).Seconds())
}

func track(shard int) string { return fmt.Sprintf("shard %d", shard) }

// ShardStarted opens an attempt span on the shard's track.
func (t *Timeline) ShardStarted(shard, attempt, cells int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open[shard] = openAttempt{
		name:  fmt.Sprintf("attempt %d", attempt+1),
		start: t.elapsed(),
		attrs: []obs.Attr{obs.Int("attempt", attempt), obs.Int("cells", cells)},
	}
	t.mu.Unlock()
}

// ShardLost closes the open attempt as lost and drops an instant with
// the loss reason.
func (t *Timeline) ShardLost(shard int, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	at := t.elapsed()
	t.closeAttempt(shard, at, "lost", reason)
	t.events = append(t.events, obs.Event{
		Track: track(shard), Name: "lost", At: at,
		Attrs: []obs.Attr{obs.Str("reason", reason)},
	})
	t.mu.Unlock()
}

// ShardFinished closes the open attempt as finished.
func (t *Timeline) ShardFinished(shard int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.closeAttempt(shard, t.elapsed(), "finished", "")
	t.mu.Unlock()
}

// ShardQuarantined drops a quarantine instant for the condemned axis
// point.
func (t *Timeline) ShardQuarantined(shard, procs int, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, obs.Event{
		Track: track(shard), Name: "quarantine", At: t.elapsed(),
		Attrs: []obs.Attr{obs.Int("procs", procs), obs.Str("reason", reason)},
	})
	t.mu.Unlock()
}

// ShardBisected drops an instant marking a poison-cell bisection step.
func (t *Timeline) ShardBisected(shard int, left, right []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, obs.Event{
		Track: track(shard), Name: "bisect", At: t.elapsed(),
		Attrs: []obs.Attr{obs.Str("left", fmt.Sprint(left)), obs.Str("right", fmt.Sprint(right))},
	})
	t.mu.Unlock()
}

// ShardBeatGap drops an instant for a detected heartbeat-sequence gap.
func (t *Timeline) ShardBeatGap(shard, missed int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, obs.Event{
		Track: track(shard), Name: "beat gap", At: t.elapsed(),
		Attrs: []obs.Attr{obs.Int("missed", missed)},
	})
	t.mu.Unlock()
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
