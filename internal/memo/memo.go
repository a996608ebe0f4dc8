// Package memo provides a bounded, deduplicating result cache for
// deterministic computations keyed by canonical scenario keys (see
// internal/canon).
//
// Three properties matter for the serving layer built on top of it:
//
//   - Bounded memory: one LRU list spans the whole cache; inserting past the
//     capacity evicts the globally least recently used entry.
//   - Singleflight: concurrent Do calls for the same key run the computation
//     once; late arrivals join the in-flight call instead of recomputing.
//   - Cooperative cancellation: the computation runs under a context that is
//     cancelled only when every request that joined the call has been
//     cancelled.  One impatient client cannot abort a result that other
//     clients are still waiting for, and a result nobody wants any more stops
//     burning CPU within one engine round.
//
// The first caller for a key, the singleflight leader, runs the computation
// on its own goroutine: a miss costs no extra goroutine and no fresh stack,
// and a pool of N callers runs at most N computations.  A leader whose
// context is cancelled while others still wait keeps computing for them and
// returns its context's error once the computation ends.
//
// Errors are never cached: a failed computation (including a cancelled one)
// is retried by the next Do for the key.  A computation that panics is
// contained — the panic is delivered to every joined caller, the leader
// included, as an error, not re-raised.
//
// A Cache can carry a second level below the memory LRU (SetTier): on a
// memory miss the singleflight leader consults the tier — typically the
// disk store of internal/store — before computing, and writes fresh results
// through to it, so the full miss path is memory → disk → compute with
// every stage collapsed to one probe per key by the same singleflight.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ringsym/internal/obs"
)

// Process-wide service totals, summed across every Cache in the process and
// registered in the obs metric registry: per-instance Stats() keeps answering
// "how is this cache doing", while the Prometheus exposition and the event
// spine see the fleet-facing totals without any snapshot plumbing.  Each
// cache operation also emits a cache.* event when the bus is live; the events
// carry no payload, so the hot path allocates nothing.
var (
	totHits      = obs.NewCounter("ringsym_memo_hits_total", "Cache lookups served from a stored value, across all caches.")
	totMisses    = obs.NewCounter("ringsym_memo_misses_total", "Cache lookups that executed the computation, across all caches.")
	totDedups    = obs.NewCounter("ringsym_memo_dedups_total", "Cache lookups that joined an in-flight computation, across all caches.")
	totEvictions = obs.NewCounter("ringsym_memo_evictions_total", "Entries dropped by the LRU bound, across all caches.")
	totDiskHits  = obs.NewCounter("ringsym_memo_disk_hits_total", "Cache lookups served by the disk tier and promoted to memory, across all caches.")
)

// Kind classifies how a Do call was served.
type Kind int8

const (
	// Miss: this call executed the computation.
	Miss Kind = iota
	// Hit: the value was already cached in memory.
	Hit
	// Dedup: the call joined a computation another caller had in flight.
	Dedup
	// DiskHit: the attached tier served the value from local disk; it was
	// promoted into memory without executing the computation.
	DiskHit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	case DiskHit:
		return "disk"
	default:
		return "miss"
	}
}

// Tier is a second cache level consulted between a memory miss and the
// computation: typically the disk store of internal/store.  Any Load that
// reports ok is counted as a DiskHit, whatever Kind it returns; the Kind
// result is kept only because the benchmark module implements this
// interface, and the next benchmark change drops it.  Store
// is the write-through of a freshly computed value; it must not block
// correctness (a tier that drops writes only costs future recomputes).  Both
// methods are called from the cache's singleflight leader, so at most one
// Load/Store per key is in flight at a time.
type Tier[V any] interface {
	Load(ctx context.Context, key string) (V, Kind, bool)
	Store(key string, v V)
}

// tierBox wraps the interface so it can sit in an atomic.Pointer.
type tierBox[V any] struct{ t Tier[V] }

// Stats is a point-in-time snapshot of the cache counters.  The four
// service kinds partition the Do calls that resolved: every call is exactly
// one of Hits (memory), DiskHits (tier promotion), Dedups (joined
// an in-flight call) or Misses (executed the computation) — a tier
// promotion is never double-counted as a miss.
type Stats struct {
	// Hits counts Do calls served from the in-memory cache.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that executed the computation (including
	// computations that returned an error).
	Misses uint64 `json:"misses"`
	// Dedups counts Do calls that joined an in-flight computation.
	Dedups uint64 `json:"dedups"`
	// DiskHits counts Do calls served by the attached tier from local disk.
	DiskHits uint64 `json:"disk_hits"`
	// PeerHits is always 0: it is kept only because the benchmark module
	// reads it, and goes in the next benchmark change.
	PeerHits uint64 `json:"-"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached values.
	Entries int `json:"entries"`
}

const defaultCapacity = 4096

// Cache is an LRU + singleflight cache from string keys to values of type V.
// One mutex guards the entry map, the recency list and the in-flight table;
// it is never held across a computation or a tier call.  The zero value is
// not usable; construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*call[V]
	cap      int
	tier     atomic.Pointer[tierBox[V]]

	hits, misses, dedups, evictions, diskHits atomic.Uint64
}

// SetTier attaches (or, with nil, detaches) a second cache level consulted
// on memory misses.  Safe to call concurrently with Do; in-flight leaders
// keep the tier they started with.
func (c *Cache[V]) SetTier(t Tier[V]) {
	if t == nil {
		c.tier.Store(nil)
		return
	}
	c.tier.Store(&tierBox[V]{t: t})
}

func (c *Cache[V]) getTier() Tier[V] {
	if b := c.tier.Load(); b != nil {
		return b.t
	}
	return nil
}

type entry[V any] struct {
	key string
	val V
}

// call is one in-flight computation plus the bookkeeping for cooperative
// cancellation: waiters counts the callers (leader included) still interested
// in the result; when it reaches zero before the computation finishes, the
// computation's context is cancelled.
type call[V any] struct {
	done     chan struct{}
	val      V
	err      error
	kind     Kind // how the leader resolved: Miss or DiskHit
	waiters  int
	finished bool
	cancel   context.CancelFunc
}

// New returns a cache holding at most capacity entries (<= 0 selects a
// default of 4096); past it, the least recently used entry is evicted.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	return &Cache[V]{
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*call[V]),
		cap:      capacity,
	}
}

// Get returns the cached value for key without affecting the singleflight
// state.  It counts as a hit when present and updates the LRU recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		totHits.Note(obs.CacheHit)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Do returns the value for key, computing it with fn at most once across
// concurrent callers.  The Kind reports how the call was served.  fn receives
// a context that is cancelled when every caller that joined this computation
// has been cancelled; its successful result is cached (evicting LRU entries
// past the capacity), its error is returned to every joined caller and not
// cached.  The leader runs fn on the calling goroutine; a caller that joined
// it returns ctx.Err() as soon as ctx is cancelled, without waiting for fn.
// A cancelled leader returns ctx.Err() once fn returns, or fn's result when
// fn finished first.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, Kind, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		// Copy the value out under the lock: insertLocked updates entries
		// in place, so reading after Unlock would race with a concurrent
		// re-insert of the same key.
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		totHits.Note(obs.CacheHit)
		return v, Hit, nil
	}
	if cl, ok := c.inflight[key]; ok {
		cl.waiters++
		c.mu.Unlock()
		c.dedups.Add(1)
		totDedups.Note(obs.CacheDedup)
		v, err := c.wait(ctx, key, cl)
		return v, Dedup, err
	}
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.inflight[key] = cl
	c.mu.Unlock()

	// The leader computes on the caller's goroutine and withdraws its
	// interest the way a joined waiter does when ctx ends first; left,
	// guarded by c.mu, records that it did.  A ctx that is already done
	// withdraws at once: AfterFunc would withdraw on a goroutine of its own,
	// racing fn.
	left := false
	leave := func() {
		c.mu.Lock()
		left = c.leaveLocked(key, cl)
		c.mu.Unlock()
	}
	stop := func() bool { return false }
	if ctx.Done() != nil {
		if ctx.Err() != nil {
			leave()
		} else {
			stop = context.AfterFunc(ctx, leave)
		}
	}
	v, kind, err := c.lead(cctx, key, fn)
	c.mu.Lock()
	cl.finished = true
	cl.val, cl.err, cl.kind = v, err, kind
	// An abandoned call was already deregistered by its last waiter and may
	// have been replaced by a fresh one; only remove our own entry.
	if c.inflight[key] == cl {
		delete(c.inflight, key)
	}
	if err == nil {
		c.insertLocked(key, v)
	}
	withdrew := left
	c.mu.Unlock()
	stop()
	cancel()
	close(cl.done)
	if withdrew {
		// The leader left before the computation finished: it answers like
		// a waiter that bailed, with ctx's error and the zero Kind.
		var zero V
		return zero, Miss, ctx.Err()
	}
	return v, kind, err
}

// lead resolves a leader's call: the tier first, then fn, both under the
// computation's context cctx.  A panic in either becomes the call's error,
// so joined waiters are released and see it too.  The counters are updated
// by how the call resolved, and a freshly computed value is written through
// to the tier before it is published.
func (c *Cache[V]) lead(cctx context.Context, key string, fn func(context.Context) (V, error)) (v V, kind Kind, err error) {
	tier := c.getTier()
	kind = Miss
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("memo: computation panicked: %v", r)
			}
		}()
		if tier != nil {
			if tv, _, ok := tier.Load(cctx, key); ok {
				v, kind = tv, DiskHit
				return
			}
		}
		v, err = fn(cctx)
	}()
	// A tier promotion is a disk hit, never a miss: misses count executed
	// computations (successful or not), so the miss counter remains the
	// exact "work we could not avoid" gauge.
	if err == nil && kind == DiskHit {
		c.diskHits.Add(1)
		totDiskHits.Add(1)
	} else {
		c.misses.Add(1)
		totMisses.Note(obs.CacheMiss)
	}
	// Tier-served values are not re-offered: the tier already has them.
	// The write-through runs outside the lock (the tier does disk I/O).
	if err == nil && kind == Miss && tier != nil {
		tier.Store(key, v)
	}
	return v, kind, err
}

// wait blocks until the call completes or ctx is cancelled.  A cancelled
// waiter deregisters its interest (see leaveLocked) and returns ctx.Err();
// when the computation beat the cancellation, the result is delivered.
func (c *Cache[V]) wait(ctx context.Context, key string, cl *call[V]) (V, error) {
	select {
	case <-cl.done:
		return cl.val, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		left := c.leaveLocked(key, cl)
		c.mu.Unlock()
		if left {
			var zero V
			return zero, ctx.Err()
		}
		<-cl.done
		return cl.val, cl.err
	}
}

// leaveLocked withdraws one caller's interest in cl (c.mu must be held) and
// reports whether it did: a finished call has nothing to withdraw from.  The
// last withdrawal cancels the computation and removes it from the in-flight
// table, so a later Do for the key starts a fresh computation instead of
// joining a dying one.
func (c *Cache[V]) leaveLocked(key string, cl *call[V]) bool {
	if cl.finished {
		return false
	}
	cl.waiters--
	if cl.waiters == 0 {
		cl.cancel()
		if c.inflight[key] == cl {
			delete(c.inflight, key)
		}
	}
	return true
}

// insertLocked adds key→val (c.mu must be held) and evicts the least
// recently used entries past the capacity.
func (c *Cache[V]) insertLocked(key string, val V) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[V]).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: val})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry[V]).key)
		c.evictions.Add(1)
		totEvictions.Note(obs.CacheEvict)
	}
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedups:    c.dedups.Load(),
		DiskHits:  c.diskHits.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
