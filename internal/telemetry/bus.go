package telemetry

import (
	"sync"
	"sync/atomic"
)

// Bus is a non-blocking publish/subscribe ring. Publish never blocks: the
// ring overwrites its oldest entry when full, and slow subscribers lose
// messages (counted, never stalling the producer). This is the delivery
// discipline an engine hot path needs — an operator tailing /events must not
// be able to wedge checkpoint processing.
type Bus[T any] struct {
	mu      sync.Mutex
	ring    ring[T]
	subs    []*Sub[T]
	dropped atomic.Uint64
}

// Sub is one subscription. Receive from C; Close when done. C is closed by
// Close (never by the bus), so ranging over it terminates cleanly.
type Sub[T any] struct {
	C       chan T
	bus     *Bus[T]
	dropped atomic.Uint64
	closed  bool
}

// NewBus returns a bus retaining the most recent capacity entries for
// snapshots and replay.
func NewBus[T any](capacity int) *Bus[T] {
	return &Bus[T]{ring: newRing[T](capacity)}
}

// Publish appends v to the ring and fans it out to every subscriber whose
// channel has room. It never blocks and allocates nothing.
func (b *Bus[T]) Publish(v T) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.ring.push(v)
	for _, s := range b.subs {
		select {
		case s.C <- v:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Snapshot returns the retained entries, oldest first.
func (b *Bus[T]) Snapshot() []T {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.snapshot()
}

// Len returns how many entries the ring currently retains.
func (b *Bus[T]) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.n
}

// Total returns the number of entries ever published.
func (b *Bus[T]) Total() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.total
}

// Dropped returns the number of fan-out sends lost to full subscriber
// buffers across all subscribers.
func (b *Bus[T]) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Subscribe registers a new subscriber with the given channel buffer.
// Messages published while the buffer is full are dropped for that
// subscriber, not queued.
func (b *Bus[T]) Subscribe(buffer int) *Sub[T] {
	if buffer < 1 {
		buffer = 1
	}
	s := &Sub[T]{C: make(chan T, buffer), bus: b}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s
}

// Dropped returns how many messages this subscriber missed.
func (s *Sub[T]) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes C. Safe to call once; sends
// only ever happen under the bus lock, so closing after removal cannot race
// a Publish.
func (s *Sub[T]) Close() {
	b := s.bus
	b.mu.Lock()
	if s.closed {
		b.mu.Unlock()
		return
	}
	s.closed = true
	for i, x := range b.subs {
		if x == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	close(s.C)
}
