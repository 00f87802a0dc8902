package live

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Hub is the live plane's front door: the sweep scheduler publishes
// lifecycle events to it, and Tap mirrors the virtual-plane record stream
// through it. A Hub owns an event bus (streaming consumers), a progress
// accumulator (the /progress snapshot and -progress line), and a flight
// recorder (post-mortem ring). All methods are safe on a nil *Hub, which
// records nothing — call sites thread one field through unconditionally,
// exactly like a nil *obs.Tracer.
type Hub struct {
	bus  *Bus
	prog *progress
	fr   *FlightRecorder
	now  func() time.Time
}

// HubOption customises a hub at construction.
type HubOption func(*hubConfig)

type hubConfig struct {
	flightCap int
}

// WithFlightCapacity sets the flight-recorder ring size. The value must
// satisfy CheckFlightCapacity; NewHub panics otherwise, so validate
// user-supplied sizes first.
func WithFlightCapacity(n int) HubOption {
	return func(c *hubConfig) { c.flightCap = n }
}

// Flight-recorder capacity bounds: below the floor a dump is too thin to
// post-mortem anything, above the ceiling the "bounded ring" stops being
// bounded in any useful sense.
const (
	MinFlightCapacity = 16
	MaxFlightCapacity = 1 << 20
)

// CheckFlightCapacity validates a user-supplied flight-recorder size.
func CheckFlightCapacity(n int) error {
	if n < MinFlightCapacity || n > MaxFlightCapacity {
		return fmt.Errorf("flight-recorder capacity %d out of range: want between %d and %d events",
			n, MinFlightCapacity, MaxFlightCapacity)
	}
	return nil
}

// NewHub returns a hub on the wall clock. Options override the
// flight-recorder capacity (default DefaultFlightCapacity).
func NewHub(opts ...HubOption) *Hub {
	c := hubConfig{flightCap: DefaultFlightCapacity}
	for _, opt := range opts {
		opt(&c)
	}
	if err := CheckFlightCapacity(c.flightCap); err != nil {
		panic("live: " + err.Error())
	}
	return NewHubAt(time.Now, c.flightCap)
}

// NewHubAt builds a hub with an injectable clock and flight capacity —
// tests pin the clock to make snapshots deterministic.
func NewHubAt(now func() time.Time, flightCapacity int) *Hub {
	return &Hub{
		bus:  NewBus(),
		prog: newProgress(now),
		fr:   NewFlightRecorder(flightCapacity),
		now:  now,
	}
}

// Bus exposes the hub's event bus for subscribing. Nil on a nil hub.
func (h *Hub) Bus() *Bus {
	if h == nil {
		return nil
	}
	return h.bus
}

// publish stamps the event with a sequence number and wall time, records
// it in the flight ring, and fans it out. Backoff mirrors double as the
// live retry counter: one backoff span precedes every retry attempt.
func (h *Hub) publish(e Event) {
	if h == nil {
		return
	}
	e.Wall = h.now()
	e.Seq = h.fr.append(e)
	if e.Kind == KindBackoff {
		h.prog.retry()
	}
	h.bus.Publish(e)
}

// SweepStarted announces a sweep of total cells running on workers
// goroutines. A hub may carry several sweeps; totals accumulate.
func (h *Hub) SweepStarted(total, workers int) {
	if h == nil {
		return
	}
	h.prog.sweepStarted(total, workers)
	h.publish(Event{Kind: KindSweepStarted, Attrs: []obs.Attr{
		obs.Int("cells", total), obs.Int("workers", workers),
	}})
}

// SweepFinished marks the current sweep complete.
func (h *Hub) SweepFinished() {
	if h == nil {
		return
	}
	h.prog.sweepFinished()
	h.publish(Event{Kind: KindSweepFinished})
}

// CellToken identifies one in-flight sweep cell. The zero token is valid
// to pass back (from a nil hub's CellStarted).
type CellToken struct {
	procs int
	start time.Time
}

// CellStarted announces a cell entering execution and returns its token.
func (h *Hub) CellStarted(procs int) CellToken {
	if h == nil {
		return CellToken{}
	}
	tok := CellToken{procs: procs, start: h.now()}
	h.prog.cellStarted()
	h.publish(Event{Kind: KindCellStarted, Procs: procs})
	return tok
}

// CellFinished announces a cell's successful completion. retries is the
// count of re-run attempts the cell needed beyond its backoffs already
// streamed live; degraded marks a result produced under partial failure.
func (h *Hub) CellFinished(tok CellToken, retries int, degraded bool) {
	if h == nil {
		return
	}
	wall := h.now().Sub(tok.start).Seconds()
	// Backoff mirrors already advanced the live retry counter mid-cell;
	// the completion event carries the authoritative count for consumers
	// but contributes nothing further to the live total.
	h.prog.cellFinished(wall, 0, degraded)
	attrs := []obs.Attr{
		obs.F64("wall_seconds", wall),
		obs.Int("retries", retries),
	}
	if degraded {
		attrs = append(attrs, obs.Str("degraded", "true"))
	}
	h.publish(Event{Kind: KindCellFinished, Procs: tok.procs, Attrs: attrs})
}

// BeginCell is the cell lifecycle as the suite scheduler consumes it:
// it announces the cell and returns the function called exactly once
// with the outcome (non-nil err for a failed cell, otherwise the retry
// total and degraded flag). The func-typed return is what lets *Hub
// satisfy suite.LiveSink structurally — the deterministic suite package
// must not import this package, and unnamed func types match across
// package boundaries where named ones cannot.
func (h *Hub) BeginCell(procs int) func(err error, retries int, degraded bool) {
	tok := h.CellStarted(procs)
	return func(err error, retries int, degraded bool) {
		if err != nil {
			h.CellFailed(tok, err)
			return
		}
		h.CellFinished(tok, retries, degraded)
	}
}

// CellFailed announces a cell that exhausted its retries.
func (h *Hub) CellFailed(tok CellToken, err error) {
	if h == nil {
		return
	}
	h.prog.cellFailed()
	var attrs []obs.Attr
	if err != nil {
		attrs = append(attrs, obs.Str("error", err.Error()))
	}
	h.publish(Event{Kind: KindCellFailed, Procs: tok.procs, Attrs: attrs})
}

// ShardStarted announces a supervised shard worker launch: attempt 0 is
// the first try, higher attempts are relaunches after a loss. Together
// with ShardLost, ShardFinished and ShardQuarantined this lets *Hub
// satisfy internal/shard's Monitor interface structurally — the shard
// supervisor and the hub both live on the wall-clock plane, but keeping
// the coupling structural means neither package imports the other.
func (h *Hub) ShardStarted(shard, attempt, cells int) {
	if h == nil {
		return
	}
	h.publish(Event{Kind: KindShardStarted, Attrs: []obs.Attr{
		obs.Int("shard", shard), obs.Int("attempt", attempt), obs.Int("cells", cells),
	}})
}

// ShardLost announces a shard worker death: nonzero exit, kill signal,
// or a heartbeat gone silent.
func (h *Hub) ShardLost(shard int, reason string) {
	if h == nil {
		return
	}
	h.publish(Event{Kind: KindShardLost, Attrs: []obs.Attr{
		obs.Int("shard", shard), obs.Str("reason", reason),
	}})
}

// ShardFinished announces a shard task that completed cleanly.
func (h *Hub) ShardFinished(shard int) {
	if h == nil {
		return
	}
	h.publish(Event{Kind: KindShardFinished, Attrs: []obs.Attr{obs.Int("shard", shard)}})
}

// ShardQuarantined announces an axis point the supervisor gave up on
// after retries and bisection.
func (h *Hub) ShardQuarantined(shard, procs int, reason string) {
	if h == nil {
		return
	}
	h.publish(Event{Kind: KindShardQuarantined, Procs: procs, Attrs: []obs.Attr{
		obs.Int("shard", shard), obs.Str("reason", reason),
	}})
}

// JobQueued announces the owning job's admission to the campaign queue
// at the given depth (this job included).
func (h *Hub) JobQueued(depth int) {
	if h == nil {
		return
	}
	h.publish(Event{Kind: KindJobQueued, Attrs: []obs.Attr{obs.Int("queue_depth", depth)}})
}

// JobStarted announces the owning job leaving the queue for a
// concurrency slot after waiting the given wall seconds.
func (h *Hub) JobStarted(waitSeconds float64) {
	if h == nil {
		return
	}
	h.publish(Event{Kind: KindJobStarted, Attrs: []obs.Attr{
		obs.F64("queue_wait_seconds", waitSeconds),
	}})
}

// JobFinished announces the owning job reaching a terminal state after
// running the given wall seconds (zero for jobs cancelled while
// queued).
func (h *Hub) JobFinished(state string, runSeconds float64) {
	if h == nil {
		return
	}
	h.publish(Event{Kind: KindJobFinished, Attrs: []obs.Attr{
		obs.Str("state", state), obs.F64("run_seconds", runSeconds),
	}})
}

// Progress returns the current progress snapshot.
func (h *Hub) Progress() ProgressSnapshot {
	if h == nil {
		return ProgressSnapshot{ETASeconds: -1}
	}
	s := h.prog.snapshot()
	s.EventsPublished = h.fr.Total()
	s.EventsDropped = h.bus.Dropped()
	return s
}

// FlightEvents returns the flight recorder's retained events in append
// order (oldest first) — the replay prefix of a late-joining event
// stream. Nil on a nil hub.
func (h *Hub) FlightEvents() []Event {
	if h == nil {
		return nil
	}
	return h.fr.Events()
}

// DumpFlight writes the flight-recorder ring to path. No-op (nil error)
// on a nil hub.
func (h *Hub) DumpFlight(path, reason string) error {
	if h == nil {
		return nil
	}
	return h.fr.WriteFile(path, reason, h.now())
}

// Tap wraps a virtual-plane recorder so its stream is mirrored onto the
// live plane. Every record is forwarded to inner verbatim — the virtual
// plane sees exactly what it would without the tap, preserving the
// byte-determinism of results, traces and metrics. Spans and events are
// additionally classified and published with wall-clock timestamps;
// metric updates are forwarded only (their volume belongs to the
// registry, not the stream). A nil hub returns inner unchanged.
func (h *Hub) Tap(inner obs.Recorder, procs int) obs.Recorder {
	if h == nil {
		return inner
	}
	if inner == nil {
		inner = obs.Discard
	}
	return &tap{hub: h, inner: inner, procs: procs}
}

type tap struct {
	hub   *Hub
	inner obs.Recorder
	procs int
}

func (t *tap) Span(s obs.Span) {
	t.inner.Span(s)
	t.hub.publish(Event{
		Kind:      classifySpan(s),
		Track:     s.Track,
		Name:      s.Name,
		Procs:     t.procs,
		VirtStart: float64(s.Start),
		VirtEnd:   float64(s.End),
		Attrs:     s.Attrs,
	})
}

func (t *tap) Event(e obs.Event) {
	t.inner.Event(e)
	t.hub.publish(Event{
		Kind:      classifyEvent(e),
		Track:     e.Track,
		Name:      e.Name,
		Procs:     t.procs,
		VirtStart: float64(e.At),
		Attrs:     e.Attrs,
	})
}

func (t *tap) Count(name string, delta float64) { t.inner.Count(name, delta) }
func (t *tap) Gauge(name string, v float64)     { t.inner.Gauge(name, v) }
func (t *tap) Observe(name string, v float64)   { t.inner.Observe(name, v) }
