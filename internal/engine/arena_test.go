package engine

import (
	"runtime"
	"sync"
	"testing"

	"ringsym/internal/ring"
)

// TestArenaFreeListBounded checks what the free list may keep: at most
// 2×GOMAXPROCS arenas however many runs end at once, and no arena wider than
// maxArenaCols, so that a run at large n does not pin its n² words of kept
// state for the rest of the process.
func TestArenaFreeListBounded(t *testing.T) {
	bound := 2 * runtime.GOMAXPROCS(0)
	check := func(when string) {
		t.Helper()
		arenas.mu.Lock()
		defer arenas.mu.Unlock()
		if len(arenas.free) > bound {
			t.Errorf("%s: %d arenas on the free list, bound %d", when, len(arenas.free), bound)
		}
		for i, b := range arenas.free {
			if cap(b.cols) > maxArenaCols {
				t.Errorf("%s: arena %d keeps %d columns, bound %d", when, i, cap(b.cols), maxArenaCols)
			}
		}
	}

	// More arenas come back at once than the list keeps.
	held := make([]*arena, 3*bound)
	for i := range held {
		held[i] = getArena()
	}
	for _, b := range held {
		putArena(b)
	}
	check("after returning 3×GOMAXPROCS arenas")

	// Runs on as many goroutines, each on a network of its own.
	var wg sync.WaitGroup
	for g := 0; g < 3*bound; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nw, err := New(testConfig(ring.Basic, nil))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := run(nw, clockwiseRound); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	check("after concurrent runs")

	// A run wider than maxArenaCols does not leave its arena behind.
	n := maxArenaCols + 1
	cfg := Config{Model: ring.Basic, Circ: int64(4 * n), IDBound: n}
	for i := 0; i < n; i++ {
		cfg.Positions = append(cfg.Positions, int64(4*i))
		cfg.IDs = append(cfg.IDs, i+1)
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(nw, clockwiseRound); err != nil {
		t.Fatal(err)
	}
	check("after a run at n = maxArenaCols+1")
}

func clockwiseRound(a *Agent) *Proto[struct{}] { return oneRound(a, ring.Clockwise) }
