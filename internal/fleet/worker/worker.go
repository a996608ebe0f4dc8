// Package worker is the fleet membership agent a ringd daemon runs when
// started with -join: it registers the daemon's advertised base URL with the
// coordinator (POST /v1/fleet/join) and keeps the registration alive with
// periodic heartbeats.  The agent is deliberately thin — all campaign work
// still arrives through the daemon's ordinary /v1/campaign endpoint; joining
// only makes the worker visible to the coordinator's lease manager.
//
// Registration is crash-tolerant in both directions: the agent retries a
// coordinator that is not up yet (workers and coordinator can start in any
// order), and the coordinator treats a heartbeat from an unknown address as
// a join (a restarted coordinator re-learns its fleet within one heartbeat
// interval).
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// HeartbeatInterval is the join/heartbeat cadence.  The coordinator expires
// a silent dynamic worker after three intervals, so two lost heartbeats are
// survivable.
const HeartbeatInterval = 5 * time.Second

// Options configures the membership agent.
type Options struct {
	// Coordinator is the coordinator's base URL (as ParseWorkers accepts).
	Coordinator string
	// Advertise is this worker's base URL as the coordinator should dial it.
	Advertise string
	// Logf, when non-nil, receives join/retry diagnostics.
	Logf func(format string, args ...any)
	// OnPeers, when non-nil, receives the coordinator's current list of
	// other up workers after every successful join/heartbeat exchange —
	// the automatic peer discovery feeding the store-peer fetcher
	// (internal/store.Peers.Set).  Called with the response's list verbatim
	// (possibly empty); never called on a failed exchange, so a worker
	// keeps its last known peers across a coordinator outage.
	OnPeers func(peers []string)
}

// joinResponse is the (lenient) shape of a join/heartbeat response; older
// coordinators omit peers.
type joinResponse struct {
	OK    bool     `json:"ok"`
	Peers []string `json:"peers"`
}

// Start runs the join/heartbeat loop until ctx ends.  It blocks; run it in
// its own goroutine.  Failures are retried at the heartbeat cadence — a
// worker never gives up on its coordinator, because lease traffic is
// unaffected either way.
func Start(ctx context.Context, opts Options) {
	// Join and heartbeat are tiny control-plane calls.
	client := &http.Client{Timeout: 5 * time.Second}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	body, _ := json.Marshal(map[string]string{"addr": opts.Advertise})

	post := func(path string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.Coordinator+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
			return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		if opts.OnPeers != nil {
			// Decode leniently: a response without (or with a malformed)
			// peer list is still a successful registration.
			var jr joinResponse
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&jr) == nil {
				opts.OnPeers(jr.Peers)
			}
		}
		return nil
	}

	joined := false
	t := time.NewTicker(HeartbeatInterval)
	defer t.Stop()
	for {
		path := "/v1/fleet/heartbeat"
		if !joined {
			path = "/v1/fleet/join"
		}
		if err := post(path); err != nil {
			if joined {
				logf("fleet: heartbeat to %s failed: %v", opts.Coordinator, err)
			} else {
				logf("fleet: join %s failed (will retry): %v", opts.Coordinator, err)
			}
			joined = false
		} else if !joined {
			joined = true
			logf("fleet: joined coordinator %s as %s", opts.Coordinator, opts.Advertise)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
