package live

import (
	"sync"
	"testing"
	"time"
)

// subscribers returns the number of subscriptions attached to b.
func subscribers(b *Bus) int {
	if subs := b.subs.Load(); subs != nil {
		return len(*subs)
	}
	return 0
}

func TestBusPublishNoSubscriber(t *testing.T) {
	b := NewBus()
	for i := 0; i < 1000; i++ {
		b.Publish(Event{Kind: KindEvent})
	}
	if got := b.Dropped(); got != 0 {
		t.Fatalf("dropped = %d with no subscriber, want 0", got)
	}
	var nilBus *Bus
	nilBus.Publish(Event{Kind: KindEvent}) // must not panic
	if nilBus.Dropped() != 0 {
		t.Fatal("nil bus should report zero drops")
	}
}

func TestBusDeliversInOrder(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(16)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		b.Publish(Event{Seq: uint64(i + 1)})
	}
	for i := 0; i < 10; i++ {
		select {
		case e := <-sub.Events():
			if e.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d", i, e.Seq)
			}
		default:
			t.Fatalf("only %d of 10 events buffered", i)
		}
	}
}

// TestBusBlockedSubscriberNeverStallsPublisher is the core guarantee: a
// subscriber that never drains loses events (counted) but the publisher
// completes immediately.
func TestBusBlockedSubscriberNeverStallsPublisher(t *testing.T) {
	b := NewBus()
	stuck := b.Subscribe(4) // never drained
	defer stuck.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			b.Publish(Event{Kind: KindSpan})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher stalled behind a blocked subscriber")
	}
	wantDropped := uint64(10000 - 4)
	if got := stuck.Dropped(); got != wantDropped {
		t.Fatalf("subscriber dropped = %d, want %d", got, wantDropped)
	}
	if got := b.Dropped(); got != wantDropped {
		t.Fatalf("bus dropped = %d, want %d", got, wantDropped)
	}
}

// TestBusConcurrentPublishSubscribe exercises publishers racing with
// subscribe/close churn; run with -race.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.Publish(Event{Kind: KindSpan})
				}
			}
		}()
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sub := b.Subscribe(8)
				// Drain a little, then detach mid-stream.
				for j := 0; j < 4; j++ {
					select {
					case <-sub.Events():
					default:
					}
				}
				sub.Close()
				sub.Close() // double close is safe
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := subscribers(b); n != 0 {
		t.Fatalf("subscribers = %d after all closed", n)
	}
}

func TestSubscriptionCloseSignalsDone(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1)
	select {
	case <-sub.Done():
		t.Fatal("done closed before Close")
	default:
	}
	sub.Close()
	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatal("done not closed after Close")
	}
	if n := subscribers(b); n != 0 {
		t.Fatalf("subscribers = %d after close", n)
	}
}
