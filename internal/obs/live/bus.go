package live

import (
	"sync"
	"sync/atomic"
)

// Bus fans live events out to subscribers without ever blocking the
// publisher. Each subscriber owns a bounded buffer; when it is full the
// event is dropped for that subscriber and counted — a stuck /events
// client or a wedged log writer can never stall the sweep's worker pool.
//
// The subscriber list is copy-on-write behind an atomic pointer, so
// Publish with no subscriber attached is a single atomic load — cheap
// enough to leave publish sites unconditional on the hot path. A nil *Bus
// accepts and discards everything.
type Bus struct {
	mu      sync.Mutex // guards subscriber-list mutation only
	subs    atomic.Pointer[[]*Subscription]
	dropped atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Publish delivers e to every subscriber that has buffer space and drops
// it (counted) for those that do not. It never blocks.
func (b *Bus) Publish(e Event) {
	if b == nil {
		return
	}
	subs := b.subs.Load()
	if subs == nil {
		return
	}
	for _, s := range *subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
}

// Dropped returns the total number of events dropped across all
// subscribers since the bus was created.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Subscribe attaches a subscriber with the given buffer capacity
// (minimum 1). The caller must drain Events() promptly or accept drops,
// and must Close() the subscription when done.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{
		bus:  b,
		ch:   make(chan Event, buffer),
		done: make(chan struct{}),
	}
	b.mu.Lock()
	var next []*Subscription
	if old := b.subs.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	b.subs.Store(&next)
	b.mu.Unlock()
	return s
}

// Subscription is one subscriber's handle on the bus.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	done    chan struct{}
	dropped atomic.Uint64
	once    sync.Once
}

// Events returns the subscription's event channel. The channel is never
// closed (a publisher may still hold a reference to it); consumers select
// on Done() to learn the subscription ended.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Done is closed when the subscription is closed.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Dropped returns how many events this subscriber lost to a full buffer.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription from the bus. Events already buffered
// remain readable from Events(); a Publish racing with Close may still
// deliver into the buffer (harmless — the channel stays open).
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		b := s.bus
		b.mu.Lock()
		if old := b.subs.Load(); old != nil {
			next := make([]*Subscription, 0, len(*old))
			for _, o := range *old {
				if o != s {
					next = append(next, o)
				}
			}
			if len(next) == 0 {
				b.subs.Store(nil)
			} else {
				b.subs.Store(&next)
			}
		}
		b.mu.Unlock()
		close(s.done)
	})
}
