// Package sim is a small discrete-event simulation kernel: a virtual clock,
// an event queue, and a handful of primitives (resources, processes) that the
// cluster model builds on.
//
// The engine is strictly deterministic: events scheduled for the same time
// fire in the order they were scheduled (FIFO tie-break via a monotone
// sequence number), and all randomness flows through seeded sim.RNG streams.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// event is one arena slot. Slots are recycled through a free list; gen
// distinguishes the current occupant from a stale Handle to a previous
// one, and pos tracks the slot's position in the heap so cancellation
// can remove it in O(log n) without boxing or lazy dead-marking.
type event struct {
	at  units.Seconds
	seq uint64
	fn  func()
	gen uint32
	pos int32 // index in Engine.heap; -1 when the slot is free
}

// Engine drives the virtual clock. The event queue is an intrusive
// min-heap of indices into a pooled event arena: scheduling an event
// reuses a free arena slot instead of allocating, and heap operations
// move plain int32 indices — no per-event allocation, no interface
// boxing. Slots are generation-checked so a Handle kept past its
// event's dispatch cannot cancel the slot's next occupant.
type Engine struct {
	now       units.Seconds
	arena     []event
	heap      []int32 // arena indices ordered by (at, seq)
	free      []int32 // recycled arena slots
	seq       uint64
	events    uint64
	limit     uint64
	peakDepth int
}

// NewEngine returns an engine with the clock at zero. The engine refuses to
// process more than limit events (0 means a default of 50 million), a
// backstop against accidental infinite event loops.
func NewEngine(limit uint64) *Engine {
	if limit == 0 {
		limit = 50_000_000
	}
	return &Engine{limit: limit}
}

// Reset returns the engine to its initial state — clock at zero, queue
// empty, counters cleared — while keeping the event arena and heap
// storage for reuse. A reset engine behaves exactly like a fresh
// NewEngine(limit); recycling one across independent simulations is how
// the sweep scheduler's per-worker scratch avoids re-growing the arena
// for every cell.
func (e *Engine) Reset(limit uint64) {
	if limit == 0 {
		limit = 50_000_000
	}
	for i := range e.arena {
		e.arena[i].fn = nil
		e.arena[i].pos = -1
		e.arena[i].gen++
	}
	e.heap = e.heap[:0]
	e.free = e.free[:0]
	for i := range e.arena {
		e.free = append(e.free, int32(i))
	}
	e.now, e.seq, e.events, e.peakDepth = 0, 0, 0, 0
	e.limit = limit
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// Stats is a point-in-time summary of the engine's work, exposed so
// event-driven benchmark models can report how hard the kernel worked
// and how close a run came to the event-limit backstop.
type Stats struct {
	// Events is the number of events dispatched so far.
	Events uint64 `json:"events"`
	// PeakQueueDepth is the largest number of events ever queued at once.
	PeakQueueDepth int `json:"peak_queue_depth"`
	// Limit is the engine's event budget.
	Limit uint64 `json:"limit"`
	// Headroom is how many more events the budget allows.
	Headroom uint64 `json:"headroom"`
}

// Stats returns the engine's current work summary.
func (e *Engine) Stats() Stats {
	s := Stats{Events: e.events, PeakQueueDepth: e.peakDepth, Limit: e.limit}
	if e.limit > e.events {
		s.Headroom = e.limit - e.events
	}
	return s
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel removes the event from the queue. Cancelling an event that has
// already fired, been cancelled, or belongs to a zero Handle is a no-op:
// the generation check recognises a recycled arena slot and leaves its
// new occupant alone.
func (h Handle) Cancel() {
	if h.eng == nil {
		return
	}
	ev := &h.eng.arena[h.idx]
	if ev.gen != h.gen || ev.pos < 0 {
		return
	}
	h.eng.removeAt(int(ev.pos))
}

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// ErrEventLimit is returned (wrapped) when the engine exhausts its event
// budget. The suite runner detects it with errors.Is and treats the
// attempt as timed out rather than broken.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// less orders heap entries by (time, sequence): the engine's FIFO
// tie-break for simultaneous events.
func (e *Engine) less(i, j int32) bool {
	a, b := &e.arena[i], &e.arena[j]
	if a.at != b.at { //greenvet:allow floateq -- event-queue comparator: exact virtual-time tie broken by sequence number
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place writes heap slot pos and keeps the arena's back-pointer in sync.
func (e *Engine) place(pos int, idx int32) {
	e.heap[pos] = idx
	e.arena[idx].pos = int32(pos)
}

// siftUp restores the heap property upward from pos.
func (e *Engine) siftUp(pos int) {
	idx := e.heap[pos]
	for pos > 0 {
		parent := (pos - 1) / 2
		if !e.less(idx, e.heap[parent]) {
			break
		}
		e.place(pos, e.heap[parent])
		pos = parent
	}
	e.place(pos, idx)
}

// siftDown restores the heap property downward from pos.
func (e *Engine) siftDown(pos int) {
	idx := e.heap[pos]
	n := len(e.heap)
	for {
		child := 2*pos + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.less(e.heap[r], e.heap[child]) {
			child = r
		}
		if !e.less(e.heap[child], idx) {
			break
		}
		e.place(pos, e.heap[child])
		pos = child
	}
	e.place(pos, idx)
}

// removeAt deletes the heap entry at pos and recycles its arena slot.
func (e *Engine) removeAt(pos int) {
	idx := e.heap[pos]
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if pos < last {
		e.place(pos, moved)
		e.siftDown(pos)
		e.siftUp(pos)
	}
	ev := &e.arena[idx]
	ev.fn = nil
	ev.pos = -1
	ev.gen++
	e.free = append(e.free, idx)
}

// At schedules fn to run at absolute virtual time at.
func (e *Engine) At(at units.Seconds, fn func()) (Handle, error) {
	if at < e.now {
		return Handle{}, fmt.Errorf("%w: %v < now %v", ErrPast, at, e.now)
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{pos: -1})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.seq++
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	if d := len(e.heap); d > e.peakDepth {
		e.peakDepth = d
	}
	return Handle{eng: e, idx: idx, gen: ev.gen}, nil
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay units.Seconds, fn func()) (Handle, error) {
	if delay < 0 {
		return Handle{}, fmt.Errorf("%w: negative delay %v", ErrPast, delay)
	}
	return e.At(e.now+delay, fn)
}

// Step processes the next event. It returns false when the queue is empty.
func (e *Engine) Step() (bool, error) {
	if len(e.heap) == 0 {
		return false, nil
	}
	if e.events >= e.limit {
		// Name the virtual time and queue state so a tripped backstop
		// is diagnosable: a runaway loop shows a frozen clock, a
		// genuinely huge workload a steadily advancing one.
		return false, fmt.Errorf(
			"%w: %d events dispatched (limit %d) at virtual time t=%v with %d still pending",
			ErrEventLimit, e.events, e.limit, e.now, len(e.heap))
	}
	root := &e.arena[e.heap[0]]
	at, fn := root.at, root.fn
	e.events++
	e.now = at
	e.removeAt(0)
	fn()
	return true, nil
}

// Run processes events until the queue is empty or until the virtual clock
// would pass until (use a negative value for "no limit"). It returns the
// number of events processed.
func (e *Engine) Run(until units.Seconds) (uint64, error) {
	var n uint64
	for len(e.heap) > 0 {
		if until >= 0 && e.arena[e.heap[0]].at > until {
			e.now = until
			return n, nil
		}
		ok, err := e.Step()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		n++
	}
	if until >= 0 && e.now < until {
		e.now = until
	}
	return n, nil
}

// RunAll processes every remaining event.
func (e *Engine) RunAll() (uint64, error) { return e.Run(-1) }
