package api

import (
	"sync"
	"sync/atomic"

	"contractstm/internal/api/wire"
)

// DefaultSubscriberBuffer is how many undelivered events a subscriber
// may lag before the broker drops it.
const DefaultSubscriberBuffer = 64

// DefaultEventReplayDepth is how many published events the broker
// retains for Last-Event-ID reconnect replay.
const DefaultEventReplayDepth = 64

// Broker fans durable-block events out to event-stream subscribers.
// Publish never blocks the caller — the node publishes from its block
// pipeline, and a stalled client must never back-pressure mining — so a
// subscriber whose buffer is full is dropped (its channel closed); the
// client observes the close, resubscribes with Last-Event-ID, and the
// server replays the gap from the broker's retained ring (falling back
// to a reset signal when the gap outruns the ring).
type Broker struct {
	mu   sync.Mutex
	next uint64 // next event sequence number
	subs map[*Subscription]struct{}
	// ring holds the last retain published events, oldest first, for
	// reconnect replay. Sequence numbers are dense: ring[i].Seq ==
	// next - len(ring) + i. It holds block records, which the receipt
	// store shares: nothing rendered is retained.
	ring   []Event
	retain int
	// dropped counts subscriptions terminated for falling behind.
	dropped atomic.Int64
}

// Event is one published durable block: the block's record and the
// sequence number the broker gave it. The record is shared by every
// subscriber and must not be modified; the SSE writer renders it
// (wire.AppendEvent).
type Event struct {
	Seq   uint64
	Block *wire.BlockRecord
}

// Subscription is one subscriber's event feed. C is closed when the
// subscriber is dropped (buffer overflow) or Close is called.
type Subscription struct {
	C      <-chan Event
	ch     chan Event
	broker *Broker
	once   sync.Once
}

// Close detaches the subscription and closes C.
func (s *Subscription) Close() {
	s.broker.remove(s)
	s.once.Do(func() { close(s.ch) })
}

// NewBroker returns an empty broker retaining DefaultEventReplayDepth
// events for reconnect replay.
func NewBroker() *Broker { return NewBrokerRetaining(DefaultEventReplayDepth) }

// NewBrokerRetaining returns an empty broker that keeps the last depth
// published events for Replay (0 disables replay).
func NewBrokerRetaining(depth int) *Broker {
	if depth < 0 {
		depth = 0
	}
	return &Broker{subs: make(map[*Subscription]struct{}), retain: depth}
}

// Subscribe attaches a new subscriber with the given buffer (<=0 selects
// DefaultSubscriberBuffer). Events published after this call are
// delivered; there is no replay.
func (b *Broker) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscription{broker: b, ch: make(chan Event, buffer)}
	s.C = s.ch
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// remove detaches s without closing its channel.
func (b *Broker) remove(s *Subscription) {
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
}

// Publish gives a durable block's record the next sequence number and
// delivers it to every subscriber that has room, dropping those that do
// not. It never blocks.
func (b *Broker) Publish(rec *wire.BlockRecord) {
	b.mu.Lock()
	ev := Event{Seq: b.next, Block: rec}
	b.next++
	if b.retain > 0 {
		if len(b.ring) == b.retain {
			copy(b.ring, b.ring[1:])
			b.ring[len(b.ring)-1] = ev
		} else {
			b.ring = append(b.ring, ev)
		}
	}
	var drop []*Subscription
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			drop = append(drop, s)
		}
	}
	for _, s := range drop {
		delete(b.subs, s)
	}
	b.mu.Unlock()
	for _, s := range drop {
		b.dropped.Add(1)
		s.once.Do(func() { close(s.ch) })
	}
}

// Replay returns the retained events with sequence numbers strictly
// greater than afterSeq, oldest first, plus whether the result is
// complete — i.e. no event between afterSeq and the newest published
// one has aged out of the ring. An afterSeq the broker has not reached
// yet (a stale id from another node, or another epoch of this one)
// reports incomplete with no events: the caller should signal a reset
// rather than silently skip. The returned slice is the caller's own.
func (b *Broker) Replay(afterSeq uint64) ([]Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if afterSeq+1 > b.next {
		return nil, false // id from the future: epoch mismatch
	}
	if afterSeq+1 == b.next {
		return nil, true // already caught up
	}
	oldest := b.next - uint64(len(b.ring))
	if afterSeq+1 < oldest {
		out := make([]Event, len(b.ring))
		copy(out, b.ring)
		return out, false
	}
	tail := b.ring[afterSeq+1-oldest:]
	out := make([]Event, len(tail))
	copy(out, tail)
	return out, true
}

// NextSeq reports the sequence number the next published event will
// carry.
func (b *Broker) NextSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// Subscribers reports live subscriptions.
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Dropped reports subscriptions terminated for falling behind.
func (b *Broker) Dropped() int64 { return b.dropped.Load() }
