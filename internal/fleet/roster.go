package fleet

import (
	"context"
	"net/http"
	"sort"

	"ringsym/internal/obs"
)

// worker is one roster entry: a ringd instance addressed by its base URL.
type worker struct {
	addr string

	up      bool
	busy    int   // leases currently granted to this worker
	retryAt int64 // obs.Now() before which a down worker is not re-probed
	probing bool  // a liveness probe is in flight

	records   int64 // record lines streamed into the merge
	completed int   // leases fully streamed
	fails     int   // lease attempts that failed here
}

// addWorkerLocked inserts or revives a roster entry.  Callers hold c.mu
// (New's single-threaded constructor path is the one exception).
func (c *Coordinator) addWorkerLocked(addr string) {
	w, ok := c.roster[addr]
	if !ok {
		w = &worker{addr: addr}
		c.roster[addr] = w
	}
	if !w.up {
		w.up = true
		if obs.On() {
			obs.Emit(obs.Event{Type: obs.FleetWorkerUp, Level: obs.LevelInfo, Worker: addr})
		}
	}
	c.kickLoop()
}

// markDownLocked transitions a worker to down and schedules its re-probe.
func (c *Coordinator) markDownLocked(w *worker, cause string) {
	if !w.up {
		return
	}
	w.up = false
	w.retryAt = obs.Now() + int64(c.opts.probeInterval)
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.FleetWorkerDown, Level: obs.LevelWarn, Worker: w.addr, Err: cause})
	}
}

// sortedWorkersLocked returns the roster ordered by address, so grant order
// is reproducible for a fixed roster and timing.
func (c *Coordinator) sortedWorkersLocked() []*worker {
	out := make([]*worker, 0, len(c.roster))
	for _, w := range c.roster {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// probe checks a down worker's /healthz and revives it on success.  Runs off
// the housekeeping tick in its own goroutine, which Run waits for;
// w.probing serialises probes per worker.
func (c *Coordinator) probe(ctx context.Context, w *worker) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.addr+"/healthz", nil)
	alive := false
	if err == nil {
		resp, perr := c.client.Do(req)
		if perr == nil {
			resp.Body.Close()
			alive = resp.StatusCode == http.StatusOK
		}
	}
	c.mu.Lock()
	w.probing = false
	if alive {
		c.addWorkerLocked(w.addr)
	} else {
		w.retryAt = obs.Now() + int64(c.opts.probeInterval)
	}
	c.mu.Unlock()
}
