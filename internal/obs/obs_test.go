package obs

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingFIFO: a subscription's queue hands events out in the order one
// producer published them, holds exactly Buffer events, rejects (and counts)
// instead of blocking or overwriting when full, and is reusable once drained.
func TestRingFIFO(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(SubOptions{Buffer: 5})
	for i := 0; i < 5; i++ {
		b.Publish(Event{Index: i})
	}
	if sub.Dropped() != 0 {
		t.Fatalf("%d events dropped before the queue held Buffer events", sub.Dropped())
	}
	b.Publish(Event{Index: 99})
	if sub.Dropped() != 1 {
		t.Fatalf("publish to a full queue: dropped = %d, want 1", sub.Dropped())
	}
	for i := 0; i < 5; i++ {
		ev, ok := sub.TryNext()
		if !ok || ev.Index != i {
			t.Fatalf("pop %d: got (%v, %v)", i, ev.Index, ok)
		}
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("pop succeeded on an empty queue")
	}
	b.Publish(Event{Index: 7})
	if ev, ok := sub.TryNext(); !ok || ev.Index != 7 {
		t.Fatal("publish after drain was not delivered")
	}
	if sub.Dropped() != 1 {
		t.Fatalf("dropped = %d after drain, want 1", sub.Dropped())
	}
}

// TestRingConcurrent: many publishers against one consumer under -race.
// Every event not counted as dropped arrives exactly once, each publisher's
// events arrive in its publish order, and delivered + dropped = published.
func TestRingConcurrent(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(SubOptions{Buffer: 64})
	const producers, perProducer = 8, 1000
	ctx, producersDone := context.WithCancel(context.Background())
	received := make(map[int]bool)
	last := make(map[int]int) // producer -> last index received from it
	done := make(chan struct{})
	go func() {
		defer close(done)
		take := func(ev Event) {
			if received[ev.Index] {
				t.Errorf("event %d delivered twice", ev.Index)
			}
			received[ev.Index] = true
			p := ev.Index / perProducer
			if prev, ok := last[p]; ok && ev.Index <= prev {
				t.Errorf("producer %d: event %d arrived after %d", p, ev.Index, prev)
			}
			last[p] = ev.Index
		}
		for {
			ev, err := sub.Next(ctx)
			if err != nil {
				break
			}
			take(ev)
		}
		// Every producer has returned: drain what is left.
		for {
			ev, ok := sub.TryNext()
			if !ok {
				return
			}
			take(ev)
		}
	}()
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Publish(Event{Index: p*perProducer + i})
			}
		}(p)
	}
	wg.Wait()
	producersDone()
	<-done

	const published = producers * perProducer
	if got := uint64(len(received)) + sub.Dropped(); got != published {
		t.Fatalf("delivered %d + dropped %d = %d, want %d published", len(received), sub.Dropped(), got, published)
	}
	if st := b.Stats(); st.Published != published || st.Dropped != sub.Dropped() {
		t.Fatalf("bus stats %+v, subscription dropped %d", st, sub.Dropped())
	}
}

// TestBusOffSwitch: a bus with no subscribers is inert and Publish is a
// no-op that does not even count.
func TestBusOffSwitch(t *testing.T) {
	b := NewBus()
	if b.Active() {
		t.Fatal("fresh bus reports active")
	}
	b.Publish(Event{Type: ScenarioFinish})
	if st := b.Stats(); st.Published != 0 || st.Dropped != 0 {
		t.Fatalf("inert publish counted: %+v", st)
	}
	sub := b.Subscribe(SubOptions{})
	if !b.Active() {
		t.Fatal("bus with a subscriber reports inactive")
	}
	sub.Close()
	if b.Active() {
		t.Fatal("bus still active after the last unsubscribe")
	}
	sub.Close() // idempotent
}

// TestBusFanoutAndFilters: two subscribers with different filters each see
// exactly their slice of the stream, timestamps are stamped, and a closed
// subscriber stops receiving.
func TestBusFanoutAndFilters(t *testing.T) {
	b := NewBus()
	all := b.Subscribe(SubOptions{})
	scen := b.Subscribe(SubOptions{Types: []string{"scenario", "cache.hit"}})
	errs := b.Subscribe(SubOptions{MinLevel: LevelError})

	b.Publish(Event{Type: ScenarioStart})
	b.Publish(Event{Type: ScenarioError, Level: LevelError})
	b.Publish(Event{Type: CacheHit})
	b.Publish(Event{Type: CacheMiss})

	drain := func(s *Subscription) []Type {
		var out []Type
		for {
			ev, ok := s.TryNext()
			if !ok {
				return out
			}
			if ev.Nanos == 0 {
				t.Error("event delivered without a timestamp")
			}
			out = append(out, ev.Type)
		}
	}
	if got := drain(all); len(got) != 4 {
		t.Fatalf("unfiltered subscriber got %v", got)
	}
	if got := drain(scen); len(got) != 3 || got[0] != ScenarioStart || got[1] != ScenarioError || got[2] != CacheHit {
		t.Fatalf("type-filtered subscriber got %v", got)
	}
	if got := drain(errs); len(got) != 1 || got[0] != ScenarioError {
		t.Fatalf("level-filtered subscriber got %v", got)
	}

	// "scenario" is a dotted-prefix match, not a substring one: a type that
	// merely starts with the string must not leak through.
	weird := b.Subscribe(SubOptions{Types: []string{"scenario"}})
	b.Publish(Event{Type: Type("scenariox.start")})
	if _, ok := weird.TryNext(); ok {
		t.Fatal("prefix filter matched a non-dotted extension")
	}

	scen.Close()
	b.Publish(Event{Type: ScenarioFinish})
	if _, ok := scen.TryNext(); ok {
		t.Fatal("closed subscriber still receiving")
	}
}

// TestBusDropCounting: a subscriber that stops draining loses events without
// blocking the publisher, and both drop counters advance.
func TestBusDropCounting(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(SubOptions{Buffer: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Publish(Event{Index: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a stalled subscriber")
	}
	if sub.Dropped() != 96 {
		t.Fatalf("subscription dropped %d events, want 96", sub.Dropped())
	}
	if st := b.Stats(); st.Dropped != 96 || st.Published != 100 {
		t.Fatalf("bus stats: %+v", st)
	}
	// The 4 buffered events are still intact and in order.
	for i := 0; i < 4; i++ {
		ev, ok := sub.TryNext()
		if !ok || ev.Index != i {
			t.Fatalf("buffered event %d: got (%v, %v)", i, ev.Index, ok)
		}
	}
}

// TestSubscriptionNext: Next blocks until an event or cancellation.
func TestSubscriptionNext(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(SubOptions{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.Publish(Event{Type: CampaignFinish})
	}()
	ev, err := sub.Next(context.Background())
	if err != nil || ev.Type != CampaignFinish {
		t.Fatalf("Next = (%v, %v)", ev, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); err == nil {
		t.Fatal("Next returned without an event on a cancelled context")
	}
}

// TestRegistryPrometheus: the exposition contains HELP/TYPE/value triples,
// sorted, with integer-rendered values; duplicate registration panics.
func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events for the test.")
	c.Add(42)
	r.Gauge("test_queue_depth", "Current depth.", func() float64 { return 2.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_events_total Events for the test.",
		"# TYPE test_events_total counter",
		"test_events_total 42",
		"# TYPE test_queue_depth gauge",
		"test_queue_depth 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "test_events_total") > strings.Index(out, "test_queue_depth") {
		t.Error("exposition not sorted by metric name")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("test_events_total", "again")
}

// TestDefaultRegistryHasBusMetrics: the default exposition always carries the
// bus fan-out accounting.
func TestDefaultRegistryHasBusMetrics(t *testing.T) {
	var sb strings.Builder
	if err := Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ringsym_obs_subscribers", "ringsym_obs_events_dropped_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("default exposition missing %s", want)
		}
	}
}

// TestPercentileBruteForce: the histogram percentile equals the sorted-slice
// nearest-rank percentile on random data.
func TestPercentileBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		samples := make([]int, n)
		hist := make(map[int]int)
		for i := range samples {
			v := rng.Intn(40)
			samples[i] = v
			hist[v]++
		}
		sort.Ints(samples)
		for _, p := range []int{1, 50, 90, 99, 100} {
			rank := (p*n + 99) / 100
			if rank < 1 {
				rank = 1
			}
			if got, want := Percentile(hist, n, p), samples[rank-1]; got != want {
				t.Fatalf("trial %d: p%d = %d, want %d", trial, p, got, want)
			}
		}
	}
}

// TestWindowSliding: samples age out of the window, rates reflect the span,
// and percentiles are exact over the live buckets.
func TestWindowSliding(t *testing.T) {
	w := NewWindow(3)
	sec := windowBucketNanos
	// Seconds 0, 1, 2: ten samples each of value 10·(s+1).
	for s := int64(0); s < 3; s++ {
		for i := 0; i < 10; i++ {
			w.Add(s*sec+int64(i), int(10*(s+1)))
		}
	}
	st := w.Stats(2 * sec)
	if st.Count != 30 || st.Sum != 10*10+10*20+10*30 {
		t.Fatalf("full window stats: %+v", st)
	}
	if st.Rate != 10 {
		t.Fatalf("rate = %v, want 10", st.Rate)
	}
	if st.P50 != 20 || st.P99 != 30 {
		t.Fatalf("percentiles: %+v", st)
	}

	// One second later the epoch-0 samples are out of the window.
	st = w.Stats(3 * sec)
	if st.Count != 20 || st.P50 != 20 {
		t.Fatalf("slid window stats: %+v", st)
	}

	// Writing second 3 recycles the epoch-0 bucket.
	w.Add(3*sec, 40)
	st = w.Stats(3 * sec)
	if st.Count != 21 || st.P99 != 40 {
		t.Fatalf("recycled bucket stats: %+v", st)
	}

	// A sample older than the window is discarded, not folded into a stale
	// bucket.
	w.Add(0, 1000)
	if st := w.Stats(3 * sec); st.P99 == 1000 {
		t.Fatal("expired sample entered the window")
	}
}

// TestLevelRoundTrip: level names parse back to themselves and unknown names
// fail.
func TestLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("round trip %v: (%v, %v)", l, got, err)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("unknown level parsed")
	}
}
