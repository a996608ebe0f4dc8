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
// Errors are never cached: a failed computation (including a cancelled one)
// is retried by the next Do for the key.  A computation that panics is
// contained — the panic is delivered to every joined caller as an error, not
// re-raised on the cache's internal goroutine.
//
// A Cache can carry a second level below the memory LRU (SetTier): on a
// memory miss the singleflight leader consults the tier — typically the
// disk store and fleet peer fetcher of internal/store — before computing,
// and writes fresh results through to it, so the full miss path is
// memory → disk → peers → compute with every stage collapsed to one probe
// per key by the same singleflight.
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
	totPeerHits  = obs.NewCounter("ringsym_memo_peer_hits_total", "Cache lookups served by a fleet peer and promoted to memory, across all caches.")
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
	// PeerHit: the attached tier fetched the value from a fleet peer; it
	// was promoted into memory without executing the computation.
	PeerHit
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
	case PeerHit:
		return "peer"
	default:
		return "miss"
	}
}

// Tier is a second cache level consulted between a memory miss and the
// computation: typically a disk store backed by a peer fetcher (see
// internal/store).  Load reports how it served the key (DiskHit or PeerHit)
// — any other Kind with ok true is treated as DiskHit for accounting.  Store
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
// one of Hits (memory), DiskHits/PeerHits (tier promotion), Dedups (joined
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
	// PeerHits counts Do calls served by the attached tier from a peer.
	PeerHits uint64 `json:"peer_hits"`
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

	hits, misses, dedups, evictions atomic.Uint64
	diskHits, peerHits              atomic.Uint64
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
	kind     Kind // how the leader resolved: Miss, DiskHit or PeerHit
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
// cached.  When ctx is cancelled while waiting, Do returns ctx.Err() without
// waiting for fn.
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
	tier := c.getTier()

	go func() {
		var v V
		var err error
		kind := Miss
		// The tier lookup and the computation run on this cache-owned
		// goroutine, outside any recover the caller installed on its own
		// stack; contain panics here so one bad computation becomes an
		// error for the joined waiters instead of killing the process (and
		// leaving done never closed).
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("memo: computation panicked: %v", r)
				}
			}()
			if tier != nil {
				if tv, tk, ok := tier.Load(cctx, key); ok {
					v = tv
					if tk == PeerHit {
						kind = PeerHit
					} else {
						kind = DiskHit
					}
					return
				}
			}
			v, err = fn(cctx)
		}()
		// Counting happens at resolution time, by how the call actually
		// resolved: a tier promotion is a disk/peer hit, never a miss —
		// misses count executed computations (successful or not), so the
		// miss counter remains the exact "work we could not avoid" gauge.
		switch {
		case err == nil && kind == DiskHit:
			c.diskHits.Add(1)
			totDiskHits.Add(1)
		case err == nil && kind == PeerHit:
			c.peerHits.Add(1)
			totPeerHits.Add(1)
		default:
			c.misses.Add(1)
			totMisses.Note(obs.CacheMiss)
		}
		// Write a freshly computed value through to the tier before
		// publishing it, outside the lock (the tier does disk and
		// network I/O).  Tier-served values are not re-offered: the disk
		// tier already has them, and peer hits were written through to the
		// local store by the tier itself.
		if err == nil && kind == Miss && tier != nil {
			tier.Store(key, v)
		}
		c.mu.Lock()
		cl.finished = true
		cl.val, cl.err, cl.kind = v, err, kind
		// An abandoned call was already deregistered by its last waiter and
		// may have been replaced by a fresh one; only remove our own entry.
		if c.inflight[key] == cl {
			delete(c.inflight, key)
		}
		if err == nil {
			c.insertLocked(key, v)
		}
		c.mu.Unlock()
		cancel()
		close(cl.done)
	}()

	v, err := c.wait(ctx, key, cl)
	// The resolved kind is published only at done; a waiter that bailed on
	// ctx cancellation reports Miss (the zero value it returns with).
	kind := Miss
	select {
	case <-cl.done:
		kind = cl.kind
	default:
	}
	return v, kind, err
}

// wait blocks until the call completes or ctx is cancelled.  A cancelled
// waiter deregisters its interest; the last deregistration cancels the
// computation itself and removes it from the in-flight table, so a later Do
// for the key starts a fresh computation instead of joining a dying one.
func (c *Cache[V]) wait(ctx context.Context, key string, cl *call[V]) (V, error) {
	select {
	case <-cl.done:
		return cl.val, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		if !cl.finished {
			cl.waiters--
			if cl.waiters == 0 {
				cl.cancel()
				if c.inflight[key] == cl {
					delete(c.inflight, key)
				}
			}
			c.mu.Unlock()
			var zero V
			return zero, ctx.Err()
		}
		c.mu.Unlock()
		// The computation beat the cancellation; deliver the result.
		<-cl.done
		return cl.val, cl.err
	}
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
		PeerHits:  c.peerHits.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
