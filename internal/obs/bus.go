package obs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
)

// Bus fans events out to subscribers.  Publish takes no lock: it loads an
// atomically-published snapshot of the subscriber list and offers the event
// to each subscriber's buffered channel without waiting, dropping (and
// counting) where a queue is full.  Subscribe/Close swap the snapshot under a
// mutex; they are rare control-plane operations.
//
// A Bus with no subscribers is inert: Active() is a single atomic load
// returning false, and Publish returns before touching the event.  Emit
// sites guard with On()/Active() so that a quiet process does not even
// construct the Event value.
type Bus struct {
	mu   sync.Mutex
	subs atomic.Pointer[[]*Subscription]

	published atomic.Uint64
	dropped   atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Default is the process-wide bus every instrumented layer emits into.
var Default = NewBus()

// On reports whether the default bus has any subscriber.  Emit sites use it
// as the free off switch: `if obs.On() { obs.Emit(...) }`.
func On() bool { return Default.Active() }

// Emit publishes an event on the default bus.
func Emit(ev Event) { Default.Publish(ev) }

// Active reports whether the bus has any subscriber (one atomic load).
func (b *Bus) Active() bool { return b.subs.Load() != nil }

// Publish offers ev to every subscriber whose filter accepts it.  It never
// blocks: a subscriber whose queue is full loses the event and both the
// subscription's and the bus's drop counters advance.  A zero Nanos is
// stamped with Now().
func (b *Bus) Publish(ev Event) {
	list := b.subs.Load()
	if list == nil {
		return
	}
	if ev.Nanos == 0 {
		ev.Nanos = Now()
	}
	b.published.Add(1)
	for _, sub := range *list {
		if !sub.accepts(ev) {
			continue
		}
		select {
		case sub.q <- ev:
		default:
			sub.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
}

// SubOptions configures a subscription.
type SubOptions struct {
	// Buffer is the subscriber's queue capacity in events, exactly; <= 0
	// selects 1024.  Events published while the queue is full are dropped
	// and counted, never waited for.
	Buffer int
	// Types, when non-empty, restricts delivery to events whose type equals
	// an entry or falls under a dotted prefix ("scenario" matches
	// "scenario.finish").
	Types []string
	// MinLevel suppresses events below the given level.
	MinLevel Level
}

// Subscription is one consumer's bounded view of a bus.  Consume with Next
// (blocking) or TryNext (polling) from a single goroutine; Close detaches it
// from the bus.
type Subscription struct {
	bus     *Bus
	q       chan Event
	types   []string
	minLvl  Level
	dropped atomic.Uint64
}

// Subscribe attaches a new subscriber.
func (b *Bus) Subscribe(opts SubOptions) *Subscription {
	buf := opts.Buffer
	if buf <= 0 {
		buf = 1024
	}
	s := &Subscription{
		bus:    b,
		q:      make(chan Event, buf),
		types:  opts.Types,
		minLvl: opts.MinLevel,
	}
	b.mu.Lock()
	old := b.subs.Load()
	var next []*Subscription
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	b.subs.Store(&next)
	b.mu.Unlock()
	return s
}

// Close detaches the subscription; events already buffered remain readable.
// Close is idempotent.  It does not close the queue: a Publish that loaded
// the subscriber snapshot before the swap may still send on it.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.subs.Load()
	if old == nil {
		return
	}
	next := make([]*Subscription, 0, len(*old))
	for _, sub := range *old {
		if sub != s {
			next = append(next, sub)
		}
	}
	if len(next) == 0 {
		b.subs.Store(nil)
		return
	}
	b.subs.Store(&next)
}

func (s *Subscription) accepts(ev Event) bool {
	if ev.Level < s.minLvl {
		return false
	}
	if len(s.types) == 0 {
		return true
	}
	t := string(ev.Type)
	for _, want := range s.types {
		if t == want || (strings.HasPrefix(t, want) && len(t) > len(want) && t[len(want)] == '.') {
			return true
		}
	}
	return false
}

// Next returns the next buffered event, blocking until one is published or
// ctx is done.
func (s *Subscription) Next(ctx context.Context) (Event, error) {
	select {
	case ev := <-s.q:
		return ev, nil
	case <-ctx.Done():
		return Event{}, ctx.Err()
	}
}

// TryNext returns the next buffered event without blocking.
func (s *Subscription) TryNext() (Event, bool) {
	select {
	case ev := <-s.q:
		return ev, true
	default:
		return Event{}, false
	}
}

// Dropped returns how many events this subscription has lost to a full queue.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// BusStats is a snapshot of a bus's fan-out accounting.
type BusStats struct {
	// Subscribers is the current number of attached subscriptions.
	Subscribers int `json:"subscribers"`
	// Published counts events offered to at least one subscriber.
	Published uint64 `json:"published"`
	// Dropped counts subscriber-side losses to full queues, summed over all
	// subscriptions (one event dropped by two slow subscribers counts twice).
	Dropped uint64 `json:"dropped"`
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() BusStats {
	st := BusStats{Published: b.published.Load(), Dropped: b.dropped.Load()}
	if list := b.subs.Load(); list != nil {
		st.Subscribers = len(*list)
	}
	return st
}
