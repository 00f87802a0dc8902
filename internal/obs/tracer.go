package obs

import (
	"sync"

	"repro/internal/units"
)

// chunkCap is the fixed capacity of one arena chunk. Appends fill the
// current chunk and start a fresh one when it is full, so growth is
// amortized without ever copying previously-recorded elements — the
// re-copy churn of a single growing slice is what made the tracer the
// sweep scheduler's allocation hot spot.
const chunkCap = 256

// arena is an append-only chunked store. Elements are addressed by their
// global index (the order they were appended), which is what a Mark
// records; every chunk but the last is full, so index arithmetic is a
// divide and a modulo by a constant.
type arena[T any] struct {
	chunks [][]T
	n      int
}

func (a *arena[T]) push(v T) {
	i := a.n / chunkCap
	if i == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, 0, chunkCap))
	}
	a.chunks[i] = append(a.chunks[i], v)
	a.n++
}

// copyRange appends elements [from, to) to dst in one pre-sized copy.
func (a *arena[T]) copyRange(dst []T, from, to int) []T {
	if to > a.n {
		to = a.n
	}
	if from >= to {
		return dst
	}
	if dst == nil {
		dst = make([]T, 0, to-from)
	}
	for i := from / chunkCap; i*chunkCap < to; i++ {
		lo, hi := 0, len(a.chunks[i])
		if base := i * chunkCap; base < from {
			lo = from - base
		}
		if base := i * chunkCap; base+hi > to {
			hi = to - base
		}
		dst = append(dst, a.chunks[i][lo:hi]...)
	}
	return dst
}

// each calls f for every element in [from, to) in append order — the
// zero-copy view the merge path walks.
func (a *arena[T]) each(from, to int, f func(*T)) {
	if to > a.n {
		to = a.n
	}
	for i := from; i < to; i++ {
		f(&a.chunks[i/chunkCap][i%chunkCap])
	}
}

// Tracer is the standard Recorder: it collects spans, events and metric
// updates in memory (append-only, mutex-protected, chunked-arena backed),
// each stream in recording order. The update log is the tracer's only
// metric store; Registry folds it into totals on demand. A nil *Tracer
// is valid and discards everything, so call sites can thread one
// `*Tracer` field through unconditionally and the disabled path stays
// provably inert.
type Tracer struct {
	mu     sync.Mutex
	spans  arena[Span]
	events arena[Event]
	ops    arena[MetricOp]
}

// MetricOp is one metric update in recording order. Counter and
// histogram accumulation is floating-point addition and therefore
// order-sensitive, so a tracer keeps its updates rather than running
// totals: folding them in order (Registry), streaming them into another
// recorder (MergeRangeInto) or replaying them from a journal (Replay)
// reproduces a campaign's totals bit for bit. MetricOp is JSON-
// serialisable (float64 round-trips exactly through encoding/json), so a
// journal can checkpoint a cell's updates.
type MetricOp struct {
	Kind  string  `json:"k"` // "c" counter add, "g" gauge set, "o" histogram observe
	Name  string  `json:"n"`
	Value float64 `json:"v"`
}

// Metric-op kinds.
const (
	OpCount   = "c"
	OpGauge   = "g"
	OpObserve = "o"
)

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span records a completed span.
func (t *Tracer) Span(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans.push(s)
	t.mu.Unlock()
}

// Event records an instant event.
func (t *Tracer) Event(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events.push(e)
	t.mu.Unlock()
}

// Count adds delta to the named counter.
func (t *Tracer) Count(name string, delta float64) { t.op(OpCount, name, delta) }

// Gauge sets the named gauge.
func (t *Tracer) Gauge(name string, v float64) { t.op(OpGauge, name, v) }

// Observe adds v to the named histogram.
func (t *Tracer) Observe(name string, v float64) { t.op(OpObserve, name, v) }

// op appends one metric update to the log.
func (t *Tracer) op(kind, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ops.push(MetricOp{Kind: kind, Name: name, Value: v})
	t.mu.Unlock()
}

// Registry folds every metric update recorded so far, in recording
// order, into a fresh Registry (nil on a nil tracer).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	r := newRegistry()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops.each(0, t.ops.n, r.apply)
	return r
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.copyRange(nil, 0, t.spans.n)
}

// Events returns a copy of the recorded events in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.copyRange(nil, 0, t.events.n)
}

// Mark is a position in a tracer's streams, used to slice out the
// records of one unit of work (a benchmark cell) for journaling or for
// the sweep scheduler's per-cell merge ranges.
type Mark struct{ spans, events, ops int }

// Mark returns the current stream position.
func (t *Tracer) Mark() Mark {
	if t == nil {
		return Mark{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Mark{spans: t.spans.n, events: t.events.n, ops: t.ops.n}
}

// Since copies every span, event and metric update recorded after m.
// The copies are the caller's to retain (journals checkpoint them), so
// this is the copying counterpart of the zero-copy MergeRangeInto view.
func (t *Tracer) Since(m Mark) ([]Span, []Event, []MetricOp) {
	if t == nil {
		return nil, nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.copyRange(nil, m.spans, t.spans.n),
		t.events.copyRange(nil, m.events, t.events.n),
		t.ops.copyRange(nil, m.ops, t.ops.n)
}

// Replay appends previously-recorded spans, events and metric updates
// verbatim, each stream in order — how a resumed sweep restores the
// trace and metrics of journal-cached cells, so its totals accumulate
// bit for bit as the uninterrupted campaign's did. Records carry
// cell-relative times, so no rebasing is needed. A journal is outside
// input: an op of a kind the tracer does not record is dropped.
func (t *Tracer) Replay(spans []Span, events []Event, ops []MetricOp) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		t.spans.push(s)
	}
	for _, e := range events {
		t.events.push(e)
	}
	for _, op := range ops {
		switch op.Kind {
		case OpCount, OpGauge, OpObserve:
			t.ops.push(op)
		}
	}
	t.mu.Unlock()
}

// MergeRangeInto replays the records between marks from and to — one
// cell of a batched sweep, delimited by Mark calls around its run — into
// dst with all virtual times shifted by offset: spans, events and the
// metric-update log, each in original recording order. Merging the
// cells of a sweep in axis order therefore yields the same campaign
// stream whichever worker ran which cell — including the order-sensitive
// floating-point accumulation of counters and histogram sums, which
// replaying final values could not guarantee. The
// records stream out of the arenas one value at a time: nothing is
// copied or retained, so the axis-order merge allocates nothing at all.
//
// The shift happens on the stack copy handed to dst; the tracer's own
// records are never mutated, and dst must not record back into t.
func (t *Tracer) MergeRangeInto(dst Recorder, from, to Mark, offset units.Seconds) {
	if t == nil || dst == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans.each(from.spans, to.spans, func(sp *Span) {
		s := *sp
		s.Start += offset
		s.End += offset
		dst.Span(s)
	})
	t.events.each(from.events, to.events, func(ep *Event) {
		e := *ep
		e.At += offset
		dst.Event(e)
	})
	t.ops.each(from.ops, to.ops, func(op *MetricOp) {
		switch op.Kind {
		case OpCount:
			dst.Count(op.Name, op.Value)
		case OpGauge:
			dst.Gauge(op.Name, op.Value)
		case OpObserve:
			dst.Observe(op.Name, op.Value)
		}
	})
}
