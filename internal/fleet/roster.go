package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"

	"ringsym/internal/obs"
)

// worker is one roster entry: a ringd instance addressed by its base URL.
type worker struct {
	addr    string
	dynamic bool // joined via /v1/fleet/join (expires on silence) vs static

	up       bool
	busy     int   // leases currently granted to this worker
	lastSeen int64 // obs.Now() of the last heartbeat or stream progress
	retryAt  int64 // obs.Now() before which a down worker is not re-probed
	probing  bool  // a liveness probe is in flight

	records   int64 // record lines streamed into the merge
	completed int   // leases fully streamed
	fails     int   // lease attempts that failed here
}

// addWorkerLocked inserts or revives a roster entry.  Callers hold c.mu
// (New's single-threaded constructor path is the one exception).
func (c *Coordinator) addWorkerLocked(addr string, dynamic bool) {
	w, ok := c.roster[addr]
	if !ok {
		w = &worker{addr: addr, dynamic: dynamic}
		c.roster[addr] = w
	}
	w.lastSeen = obs.Now()
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
// the housekeeping tick in its own goroutine; w.probing serialises probes
// per worker.
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
		c.addWorkerLocked(w.addr, w.dynamic)
	} else {
		w.retryAt = obs.Now() + int64(c.opts.probeInterval)
	}
	c.mu.Unlock()
}

// joinRequest is the body of POST /v1/fleet/join and /v1/fleet/heartbeat:
// the worker's advertised base URL.
type joinRequest struct {
	Addr string `json:"addr"`
}

// Handler returns the coordinator's control-plane mux for dynamic worker
// registration:
//
//	POST /v1/fleet/join       {"addr": "http://host:8080"} — register
//	POST /v1/fleet/heartbeat  {"addr": "http://host:8080"} — keep alive
//
// A heartbeat from an unknown address is treated as a join, so a worker that
// outlives a coordinator restart re-registers without special-casing.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/fleet/join", c.handleJoin)
	mux.HandleFunc("/v1/fleet/heartbeat", c.handleJoin)
	return mux
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req joinRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad join body: "+err.Error(), http.StatusBadRequest)
		return
	}
	addrs, err := ParseWorkers(req.Addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.addWorkerLocked(addrs[0], true)
	// Peer discovery piggybacks on the join/heartbeat exchange: the
	// response lists every other up worker (sorted, so a stable roster
	// yields a stable list), and the worker feeds it to its store-peer
	// fetcher.  No extra endpoint, no extra polling cadence — the roster a
	// worker caches is exactly as fresh as its liveness registration.
	peers := make([]string, 0, len(c.roster))
	for _, rw := range c.sortedWorkersLocked() {
		if rw.up && rw.addr != addrs[0] {
			peers = append(peers, rw.addr)
		}
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"ok":    true,
		"peers": peers,
	})
}
