package live

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// fakeClock is a deterministic wall clock advancing a fixed step per
// call, so progress and ETA math is exactly checkable.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), step: step}
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestNilHubIsSafe(t *testing.T) {
	var h *Hub
	h.SweepStarted(10, 2)
	tok := h.CellStarted(4)
	h.CellFinished(tok, 1, true)
	h.CellFailed(tok, nil)
	h.SweepFinished()
	if h.Bus() != nil {
		t.Fatal("nil hub bus should be nil")
	}
	p := h.Progress()
	if p.CellsTotal != 0 || p.ETASeconds != -1 {
		t.Fatalf("nil hub progress = %+v", p)
	}
	if err := h.DumpFlight("/nonexistent/dir/x.json", "test"); err != nil {
		t.Fatalf("nil hub DumpFlight: %v", err)
	}
	rec := obs.NewTracer()
	if got := h.Tap(rec, 4); got != obs.Recorder(rec) {
		t.Fatal("nil hub Tap must return inner unchanged")
	}
}

func TestHubLifecycleAndProgress(t *testing.T) {
	clk := newFakeClock(time.Second)
	h := NewHubAt(clk.now, 64)
	sub := h.Bus().Subscribe(64)
	defer sub.Close()

	h.SweepStarted(4, 2)
	tok1 := h.CellStarted(1)
	tok2 := h.CellStarted(2)

	p := h.Progress()
	if p.CellsTotal != 4 || p.InFlight != 2 || p.CellsDone != 0 {
		t.Fatalf("mid-flight progress = %+v", p)
	}
	if p.ETASeconds != -1 {
		t.Fatalf("ETA before first completion = %v, want -1", p.ETASeconds)
	}

	h.CellFinished(tok1, 0, false)
	h.CellFinished(tok2, 2, true)
	p = h.Progress()
	if p.CellsDone != 2 || p.InFlight != 0 || p.DegradedCells != 1 {
		t.Fatalf("after two cells: %+v", p)
	}
	if p.ETASeconds < 0 {
		t.Fatalf("ETA still unknown after completions: %v", p.ETASeconds)
	}

	tok3 := h.CellStarted(4)
	h.CellFailed(tok3, nil)
	tok4 := h.CellStarted(8)
	h.CellFinished(tok4, 0, false)
	h.SweepFinished()

	p = h.Progress()
	if !p.Done || p.CellsDone != 3 || p.CellsFailed != 1 {
		t.Fatalf("final progress = %+v", p)
	}
	if p.ETASeconds != 0 {
		t.Fatalf("final ETA = %v, want 0", p.ETASeconds)
	}
	if p.EventsPublished == 0 {
		t.Fatal("no events published")
	}

	var kinds []Kind
	var lastSeq uint64
drain:
	for {
		select {
		case e := <-sub.Events():
			if e.Seq <= lastSeq {
				t.Fatalf("seq not increasing: %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			if e.Wall.IsZero() {
				t.Fatalf("event %v has zero wall time", e.Kind)
			}
			kinds = append(kinds, e.Kind)
		default:
			break drain
		}
	}
	want := []Kind{
		KindSweepStarted,
		KindCellStarted, KindCellStarted,
		KindCellFinished, KindCellFinished,
		KindCellStarted, KindCellFailed,
		KindCellStarted, KindCellFinished,
		KindSweepFinished,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
}

// TestHubShardEvents: the four shard kinds reach the stream with their
// attributes; bisection steps and heartbeat gaps do not.
func TestHubShardEvents(t *testing.T) {
	h := NewHubAt(newFakeClock(time.Second).now, 64)
	for _, e := range []shard.Event{
		{Kind: shard.Started, Shard: 1, Attempt: 0, Cells: 4},
		{Kind: shard.BeatGap, Shard: 1, Missed: 2},
		{Kind: shard.Lost, Shard: 1, Reason: "signal: killed"},
		{Kind: shard.Bisected, Shard: 1, Left: []int{1, 2}, Right: []int{3, 4}},
		{Kind: shard.Quarantined, Shard: 1, Procs: 3, Reason: "exit status 3"},
		{Kind: shard.Finished, Shard: 0},
	} {
		h.Shard(e)
	}
	var got []string
	for _, e := range h.fr.Events() {
		line := fmt.Sprintf("%s procs=%d", e.Kind, e.Procs)
		for _, a := range e.Attrs {
			line += " " + a.Key + "=" + a.Text()
		}
		got = append(got, line)
	}
	want := []string{
		"shard.started procs=0 shard=1 attempt=0 cells=4",
		"shard.lost procs=0 shard=1 reason=signal: killed",
		"shard.quarantined procs=3 shard=1 reason=exit status 3",
		"shard.finished procs=0 shard=0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	var nilHub *Hub
	nilHub.Shard(shard.Event{Kind: shard.Lost})
}

// TestHubETAConverges drives a steady stream of equal-length cells and
// checks the ETA tracks remaining work down to zero.
func TestHubETAConverges(t *testing.T) {
	clk := newFakeClock(500 * time.Millisecond)
	h := NewHubAt(clk.now, 16)
	const total, workers = 20, 1
	h.SweepStarted(total, workers)
	var last float64 = -1
	for i := 0; i < total; i++ {
		tok := h.CellStarted(1)
		h.CellFinished(tok, 0, false)
		eta := h.Progress().ETASeconds
		if i > 0 {
			if eta > last {
				t.Fatalf("cell %d: ETA rose from %v to %v with constant cell times", i, last, eta)
			}
		}
		last = eta
	}
	if last != 0 {
		t.Fatalf("final ETA = %v, want 0", last)
	}
}

// TestTapMirrorsAndForwards pins the two halves of the tap contract: the
// inner recorder receives records verbatim (the virtual plane is
// untouched), and the live plane sees the classified mirror.
func TestTapMirrorsAndForwards(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	h := NewHubAt(clk.now, 64)
	sub := h.Bus().Subscribe(64)
	defer sub.Close()

	inner := obs.NewTracer()
	rec := h.Tap(inner, 4)

	span := obs.Span{Track: obs.TrackMeter, Name: obs.NameMeterWindow, Start: 1, End: 3,
		Attrs: []obs.Attr{obs.Int("samples", 7)}}
	rec.Span(span)
	ev := obs.Event{Track: obs.TrackMeter, Name: obs.EventNodeCrash, At: 2}
	rec.Event(ev)
	rec.Count("x.count", 2)
	rec.Gauge("x.gauge", 3)
	rec.Observe("x.hist", 4)

	// Virtual plane: inner got everything verbatim.
	spans := inner.Spans()
	if len(spans) != 1 || !reflect.DeepEqual(spans[0], span) {
		t.Fatalf("inner spans = %+v", spans)
	}
	events := inner.Events()
	if len(events) != 1 || !reflect.DeepEqual(events[0], ev) {
		t.Fatalf("inner events = %+v", events)
	}
	snap := inner.Registry().Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 2 {
		t.Fatalf("inner counters = %+v", snap.Counters)
	}

	// Live plane: span and event mirrored with classification and virtual
	// coordinates; metric updates not mirrored.
	var got []Event
	for len(got) < 2 {
		select {
		case e := <-sub.Events():
			got = append(got, e)
		default:
			t.Fatalf("only %d mirrored events", len(got))
		}
	}
	if got[0].Kind != KindMeterWindow || got[0].VirtStart != 1 || got[0].VirtEnd != 3 || got[0].Procs != 4 {
		t.Fatalf("mirrored span = %+v", got[0])
	}
	if got[1].Kind != KindCrash || got[1].VirtStart != 2 {
		t.Fatalf("mirrored event = %+v", got[1])
	}
	select {
	case e := <-sub.Events():
		t.Fatalf("unexpected extra live event %+v (metrics must not be mirrored)", e)
	default:
	}
}

// TestTapBackoffCountsRetry checks a mirrored backoff span advances the
// live retry counter immediately, mid-cell.
func TestTapBackoffCountsRetry(t *testing.T) {
	h := NewHubAt(newFakeClock(time.Millisecond).now, 16)
	rec := h.Tap(obs.Discard, 1)
	rec.Span(obs.Span{Track: obs.TrackSuite, Name: obs.NameBackoff, Start: 0, End: 30})
	rec.Span(obs.Span{Track: obs.TrackSuite, Name: obs.NameBackoff, Start: 40, End: 70})
	if got := h.Progress().Retries; got != 2 {
		t.Fatalf("live retries = %d, want 2", got)
	}
}

func TestClassifySpanAndEvent(t *testing.T) {
	spanCases := []struct {
		span obs.Span
		want Kind
	}{
		{obs.Span{Track: obs.TrackMeter, Name: obs.NameMeterWindow}, KindMeterWindow},
		{obs.Span{Track: obs.TrackSuite, Name: obs.NameBackoff}, KindBackoff},
		{obs.Span{Track: obs.TrackSuite, Name: "attempt 2"}, KindAttempt},
		{obs.Span{Track: "custom", Name: "whatever"}, KindSpan},
	}
	for _, c := range spanCases {
		if got := classifySpan(c.span); got != c.want {
			t.Errorf("classifySpan(%+v) = %v, want %v", c.span, got, c.want)
		}
	}
	eventCases := []struct {
		ev   obs.Event
		want Kind
	}{
		{obs.Event{Name: obs.EventNodeCrash}, KindCrash},
		{obs.Event{Name: obs.EventStraggler}, KindStraggler},
		{obs.Event{Name: obs.EventRepair}, KindRepair},
		{obs.Event{Name: "anything else"}, KindEvent},
	}
	for _, c := range eventCases {
		if got := classifyEvent(c.ev); got != c.want {
			t.Errorf("classifyEvent(%+v) = %v, want %v", c.ev, got, c.want)
		}
	}
}
