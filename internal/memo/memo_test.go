package memo_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringsym/internal/memo"
)

func TestHitMiss(t *testing.T) {
	c := memo.New[int](100)
	calls := 0
	fn := func(context.Context) (int, error) { calls++; return 42, nil }
	v, kind, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != 42 || kind != memo.Miss {
		t.Fatalf("first Do: %d %v %v", v, kind, err)
	}
	v, kind, err = c.Do(context.Background(), "k", fn)
	if err != nil || v != 42 || kind != memo.Hit {
		t.Fatalf("second Do: %d %v %v", v, kind, err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Dedups != 0 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := memo.New[int](100)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || kind != memo.Miss {
		t.Fatalf("retry: %d %v %v", v, kind, err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times", calls)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("entries = %d", c.Stats().Entries)
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := memo.New[int](100)
	var calls atomic.Int32
	release := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	kinds := make([]memo.Kind, workers)
	started := make(chan struct{})
	var once sync.Once
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				once.Do(func() { close(started) })
				<-release
				return 9, nil
			})
			if err != nil || v != 9 {
				t.Errorf("worker %d: %d %v", i, v, err)
			}
			kinds[i] = kind
		}(i)
	}
	<-started
	// Give the remaining workers a moment to join the in-flight call, then
	// let the computation finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn called %d times", got)
	}
	misses := 0
	for _, k := range kinds {
		if k == memo.Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want 1", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Dedups != workers-1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCancelLastWaiterCancelsComputation: the computation context must be
// cancelled exactly when every joined caller has given up.
func TestCancelLastWaiterCancelsComputation(t *testing.T) {
	c := memo.New[int](100)
	computeCancelled := make(chan struct{})
	inFn := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	go func() {
		defer wg.Done()
		_, _, errs[0] = c.Do(ctx1, "k", func(cctx context.Context) (int, error) {
			close(inFn)
			<-cctx.Done()
			close(computeCancelled)
			return 0, cctx.Err()
		})
	}()
	<-inFn
	go func() {
		defer wg.Done()
		_, _, errs[1] = c.Do(ctx2, "k", func(context.Context) (int, error) {
			t.Error("second caller must join, not compute")
			return 0, nil
		})
	}()
	// Wait until the second caller has actually joined (dedup counter).
	deadline := time.After(2 * time.Second)
	for c.Stats().Dedups == 0 {
		select {
		case <-deadline:
			t.Fatal("second caller never joined")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	cancel1()
	select {
	case <-computeCancelled:
		t.Fatal("computation cancelled while a waiter remained")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	select {
	case <-computeCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("computation not cancelled after the last waiter left")
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller %d: err = %v", i, err)
		}
	}
	// The failed computation must not be cached.
	if c.Stats().Entries != 0 {
		t.Fatalf("entries = %d", c.Stats().Entries)
	}
}

// TestWaiterSurvivesOtherCancellation: a waiter whose context stays live gets
// the result even when the original caller cancels.
func TestWaiterSurvivesOtherCancellation(t *testing.T) {
	c := memo.New[int](100)
	inFn := make(chan struct{})
	release := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.Do(ctx1, "k", func(cctx context.Context) (int, error) {
			close(inFn)
			select {
			case <-release:
				return 5, nil
			case <-cctx.Done():
				return 0, cctx.Err()
			}
		})
	}()
	<-inFn
	got := make(chan error, 1)
	var val int
	go func() {
		var err error
		var v int
		v, _, err = c.Do(context.Background(), "k", func(context.Context) (int, error) {
			return 0, errors.New("must not recompute")
		})
		val = v
		got <- err
	}()
	for c.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel1() // the leader leaves; the second waiter keeps the call alive
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-got; err != nil || val != 5 {
		t.Fatalf("waiter got %d, %v", val, err)
	}
	wg.Wait()
}

// TestRetryAfterAbandonedCall: once the last waiter abandons a call, a new Do
// for the key must start a fresh computation instead of joining the dying one
// and inheriting its cancellation error.
func TestRetryAfterAbandonedCall(t *testing.T) {
	c := memo.New[int](100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	blocked := make(chan struct{})
	_, _, err := c.Do(ctx, "k", func(cctx context.Context) (int, error) {
		<-cctx.Done()
		close(blocked)
		return 0, cctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call: err = %v", err)
	}
	v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 8, nil })
	if err != nil || v != 8 || kind != memo.Miss {
		t.Fatalf("retry: %d %v %v", v, kind, err)
	}
	<-blocked // the abandoned computation was cancelled, not leaked
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

// TestPanickingComputation: a panic inside fn becomes an error for every
// joined caller — it must not escape on the cache's internal goroutine (which
// would crash the process and leave waiters hanging) and must not be cached.
func TestPanickingComputation(t *testing.T) {
	c := memo.New[int](100)
	inFn := make(chan struct{})
	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(inFn)
			<-release
			panic("boom")
		})
		errs <- err
	}()
	<-inFn
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("second caller must join, not compute")
			return 0, nil
		})
		errs <- err
	}()
	for c.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("caller %d: err = %v, want the contained panic", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("panicked computation was cached: %+v", st)
	}
	// The key is retryable afterwards.
	v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 4, nil })
	if err != nil || v != 4 || kind != memo.Miss {
		t.Fatalf("retry: %d %v %v", v, kind, err)
	}
}

// TestLRUEviction: the bound is exact and global.  With capacity c, the
// (c+1)th insert evicts exactly one key — the least recently used one — and
// a key refreshed by Get survives in its place.
func TestLRUEviction(t *testing.T) {
	const capacity = 8
	c := memo.New[int](capacity)
	put := func(i int) {
		t.Helper()
		if _, _, err := c.Do(context.Background(), fmt.Sprintf("key-%d", i), func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < capacity; i++ {
		put(i)
	}
	if st := c.Stats(); st.Entries != capacity || st.Evictions != 0 {
		t.Fatalf("after %d inserts: %+v, want %d entries and no evictions", capacity, st, capacity)
	}
	// Touch the oldest key: key-1 becomes the least recently used.
	if _, ok := c.Get("key-0"); !ok {
		t.Fatal("key-0 missing before any eviction")
	}
	put(capacity)
	if st := c.Stats(); st.Entries != capacity || st.Evictions != 1 {
		t.Fatalf("after %d inserts: %+v, want %d entries and 1 eviction", capacity+1, st, capacity)
	}
	if _, ok := c.Get("key-1"); ok {
		t.Fatal("the least recently used key survived the eviction")
	}
	for _, i := range []int{0, 2, 3, 4, 5, 6, 7, capacity} {
		if v, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok || v != i {
			t.Fatalf("key-%d = %d, %v after evicting key-1", i, v, ok)
		}
	}
	// Every further insert evicts exactly one key, so the last c inserted
	// are the survivors.
	for i := capacity + 1; i < 4*capacity; i++ {
		put(i)
	}
	if st := c.Stats(); st.Entries != capacity || int(st.Evictions) != 3*capacity {
		t.Fatalf("after %d inserts: %+v, want %d entries and %d evictions", 4*capacity, st, capacity, 3*capacity)
	}
	for i := 3 * capacity; i < 4*capacity; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("recent key-%d evicted", i)
		}
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := memo.New[string](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%32)
				v, _, err := c.Do(context.Background(), k, func(context.Context) (string, error) {
					return k, nil
				})
				if err != nil || v != k {
					t.Errorf("Do(%s) = %q, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got != 32 {
		t.Fatalf("len = %d, want 32", got)
	}
}

func TestGet(t *testing.T) {
	c := memo.New[int](10)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache")
	}
	c.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
	if v, ok := c.Get("k"); !ok || v != 3 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}

// TestLeaderComputesInline: the leader runs fn on the calling goroutine, so
// fn's stack holds the caller's frames.
func TestLeaderComputesInline(t *testing.T) {
	c := memo.New[int](10)
	var stack string
	_, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
		buf := make([]byte, 64<<10)
		stack = string(buf[:runtime.Stack(buf, false)])
		return 1, nil
	})
	if err != nil || kind != memo.Miss {
		t.Fatalf("Do: %v %v", kind, err)
	}
	if !strings.Contains(stack, "memo_test.TestLeaderComputesInline(") {
		t.Fatalf("fn did not run on the caller's goroutine:\n%s", stack)
	}
}

// TestCancelledLeaderKeepsComputing: a leader whose context is cancelled
// while a joiner still waits keeps computing for the joiner, which gets the
// value; the leader returns context.Canceled, and only once fn has returned.
func TestCancelledLeaderKeepsComputing(t *testing.T) {
	c := memo.New[int](10)
	inFn := make(chan struct{})
	release := make(chan struct{})
	var fnReturned atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	type answer struct {
		v    int
		kind memo.Kind
		err  error
	}
	leader := make(chan answer, 1)
	go func() {
		v, kind, err := c.Do(ctx, "k", func(cctx context.Context) (int, error) {
			close(inFn)
			select {
			case <-release:
			case <-cctx.Done():
				return 0, cctx.Err()
			}
			fnReturned.Store(true)
			return 6, nil
		})
		leader <- answer{v, kind, err}
	}()
	<-inFn
	joiner := make(chan answer, 1)
	go func() {
		v, kind, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			return 0, errors.New("the joiner must not compute")
		})
		joiner <- answer{v, kind, err}
	}()
	for c.Stats().Dedups == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case a := <-leader:
		t.Fatalf("cancelled leader returned %+v before fn finished", a)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if a := <-joiner; a.err != nil || a.v != 6 || a.kind != memo.Dedup {
		t.Fatalf("joiner got %+v, want 6 as a dedup", a)
	}
	a := <-leader
	if !errors.Is(a.err, context.Canceled) || a.v != 0 {
		t.Fatalf("leader got %+v, want context.Canceled", a)
	}
	if !fnReturned.Load() {
		t.Fatal("leader returned before fn")
	}
	if v, ok := c.Get("k"); !ok || v != 6 {
		t.Fatalf("the joiner's value was not cached: %d, %v", v, ok)
	}
}

// TestPreCancelledLeader: a leader whose context is already cancelled hands
// fn a cancelled context on entry, with no watcher goroutine to wait for.
func TestPreCancelledLeader(t *testing.T) {
	c := memo.New[int](10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		var entryErr error
		_, _, err := c.Do(ctx, fmt.Sprint(i), func(cctx context.Context) (int, error) {
			entryErr = cctx.Err()
			return 0, entryErr
		})
		if !errors.Is(entryErr, context.Canceled) {
			t.Fatalf("try %d: fn's context on entry: %v, want cancelled", i, entryErr)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("try %d: Do: %v", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled computations were cached: %+v", st)
	}
}
