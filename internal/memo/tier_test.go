package memo

import (
	"context"
	"sync"
	"testing"
)

// mapTier is a Tier backed by a plain map, recording write-throughs.
type mapTier struct {
	mu     sync.Mutex
	vals   map[string]int
	kind   Kind // what a hit reports
	loads  int
	stores int
}

func (m *mapTier) Load(_ context.Context, key string) (int, Kind, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	v, ok := m.vals[key]
	return v, m.kind, ok
}

func (m *mapTier) Store(key string, v int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores++
	m.vals[key] = v
}

// TestTierHitPromotes covers the tier seam: a tier hit resolves the call
// without running fn, promotes the value into memory (the next Do is a
// memory hit), and is counted as a disk hit, never a miss, whatever Kind
// the tier reported with it.
func TestTierHitPromotes(t *testing.T) {
	for _, kind := range []Kind{DiskHit, Miss} {
		t.Run(kind.String(), func(t *testing.T) {
			c := New[int](0)
			tier := &mapTier{vals: map[string]int{"k": 42}, kind: kind}
			c.SetTier(tier)
			computed := false
			v, k, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				computed = true
				return -1, nil
			})
			if err != nil || v != 42 || k != DiskHit {
				t.Fatalf("Do = %d, %v, %v; want 42, DiskHit, nil", v, k, err)
			}
			if computed {
				t.Fatal("fn ran despite a tier hit")
			}
			// Promoted: the second Do is a memory hit, no second tier load.
			v, k, err = c.Do(context.Background(), "k", func(context.Context) (int, error) { return -1, nil })
			if err != nil || v != 42 || k != Hit {
				t.Fatalf("second Do = %d, %v, %v; want 42, Hit, nil", v, k, err)
			}
			if tier.loads != 1 {
				t.Fatalf("tier loads = %d, want 1", tier.loads)
			}
			st := c.Stats()
			if st.Misses != 0 {
				t.Fatalf("tier promotion double-counted as a miss: %+v", st)
			}
			if st.DiskHits != 1 || st.Hits != 1 {
				t.Fatalf("stats = %+v, want disk=1 hits=1", st)
			}
		})
	}
}

// TestTierWriteThrough: a fresh compute is written through to the tier; a
// tier-served value is not re-offered.
func TestTierWriteThrough(t *testing.T) {
	c := New[int](0)
	tier := &mapTier{vals: map[string]int{}, kind: DiskHit}
	c.SetTier(tier)
	v, k, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 || k != Miss {
		t.Fatalf("Do = %d, %v, %v; want 7, Miss, nil", v, k, err)
	}
	tier.mu.Lock()
	stored, stores := tier.vals["k"], tier.stores
	tier.mu.Unlock()
	if stored != 7 || stores != 1 {
		t.Fatalf("write-through: vals[k]=%d stores=%d, want 7, 1", stored, stores)
	}
	// A second cache (cold memory) over the same tier serves from the tier
	// and does not store again.
	c2 := New[int](0)
	c2.SetTier(tier)
	v, k, err = c2.Do(context.Background(), "k", func(context.Context) (int, error) { return -1, nil })
	if err != nil || v != 7 || k != DiskHit {
		t.Fatalf("cold Do over warm tier = %d, %v, %v; want 7, DiskHit, nil", v, k, err)
	}
	tier.mu.Lock()
	stores = tier.stores
	tier.mu.Unlock()
	if stores != 1 {
		t.Fatalf("tier-served value was re-offered: stores = %d, want 1", stores)
	}
}

// TestTierErrorStillMiss: a failing computation under an attached tier
// counts as a miss and stores nothing.
func TestTierErrorStillMiss(t *testing.T) {
	c := New[int](0)
	tier := &mapTier{vals: map[string]int{}, kind: DiskHit}
	c.SetTier(tier)
	wantErr := context.DeadlineExceeded
	_, k, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, wantErr })
	if err != wantErr || k != Miss {
		t.Fatalf("Do = %v, %v; want Miss, %v", k, err, wantErr)
	}
	if st := c.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
	tier.mu.Lock()
	defer tier.mu.Unlock()
	if tier.stores != 0 {
		t.Fatal("failed computation written through to the tier")
	}
}

// TestTierDedup: waiters joining a leader that resolves from the tier get
// the tier's value as Dedup; the tier is probed once.
func TestTierDedup(t *testing.T) {
	c := New[int](0)
	release := make(chan struct{})
	tier := &blockingTier{vals: map[string]int{"k": 9}, release: release}
	c.SetTier(tier)
	const waiters = 4
	results := make(chan Kind, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, k, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return -1, nil })
			if err != nil || v != 9 {
				t.Errorf("Do = %d, %v", v, err)
			}
			results <- k
		}()
	}
	// Wait until every goroutine has either become the leader or joined it,
	// then release the tier load.
	for {
		c.mu.Lock()
		cl := c.inflight["k"]
		n := 0
		if cl != nil {
			n = cl.waiters
		}
		c.mu.Unlock()
		if n == waiters {
			break
		}
	}
	close(release)
	wg.Wait()
	close(results)
	var leaders, dedups int
	for k := range results {
		switch k {
		case DiskHit:
			leaders++
		case Dedup:
			dedups++
		default:
			t.Fatalf("unexpected kind %v", k)
		}
	}
	if leaders != 1 || dedups != waiters-1 {
		t.Fatalf("leaders=%d dedups=%d, want 1 and %d", leaders, dedups, waiters-1)
	}
	if tier.loads != 1 {
		t.Fatalf("tier probed %d times under singleflight, want 1", tier.loads)
	}
}

type blockingTier struct {
	mu      sync.Mutex
	vals    map[string]int
	release chan struct{}
	loads   int
}

func (b *blockingTier) Load(_ context.Context, key string) (int, Kind, bool) {
	b.mu.Lock()
	b.loads++
	v, ok := b.vals[key]
	b.mu.Unlock()
	<-b.release
	return v, DiskHit, ok
}

func (b *blockingTier) Store(string, int) {}
