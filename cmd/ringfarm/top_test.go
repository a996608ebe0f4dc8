package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/fleet"
	"ringsym/internal/obs"
	"ringsym/internal/serve"
)

// cutWriter fails every write after the first keep, so the daemon's stream
// ends after keep records (each record is one write).
type cutWriter struct {
	http.ResponseWriter
	keep int
}

var errCut = errors.New("stream cut")

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.keep == 0 {
		return 0, errCut
	}
	c.keep--
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// TestTopWorkerRowsMatchFleetResult runs a fleet sweep on one worker whose
// first lease stream ends after two records: the lease is granted, fails
// with two records merged, and its remainder is granted again once the
// worker is probed back up, then done.  The top view fed the run's fleet
// events must show each worker as fleet.Result.Workers reports it, the two
// records merged before the failure included.
func TestTopWorkerRowsMatchFleetResult(t *testing.T) {
	pool := serve.New(serve.Options{Workers: 1})
	h := pool.Handler()
	var campaigns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/campaign" && campaigns.Add(1) == 1 {
			w = &cutWriter{ResponseWriter: w, keep: 2}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})

	sub := obs.Default.Subscribe(obs.SubOptions{Buffer: 1 << 12, Types: []string{"fleet"}})
	defer sub.Close()
	res, err := fleet.Run(context.Background(), campaign.Matrix{Sizes: []int{8}, Seeds: []int64{1, 2}}, fleet.Options{Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != res.Total || len(res.Quarantined) != 0 {
		t.Fatalf("merged %d of %d, quarantined %v", res.Merged, res.Total, res.Quarantined)
	}

	v := newTopView()
	var seq []string
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		v.observe(ev)
		if strings.HasPrefix(string(ev.Type), "fleet.lease.") {
			seq = append(seq, strings.TrimPrefix(string(ev.Type), "fleet.lease."))
		}
	}
	if got := strings.Join(seq, " "); !strings.HasPrefix(got, "grant fail grant done") {
		t.Fatalf("lease events %q, want grant fail grant done first", got)
	}
	if len(v.workers) != len(res.Workers) {
		t.Fatalf("top shows %d workers, the fleet reports %d", len(v.workers), len(res.Workers))
	}
	for _, ws := range res.Workers {
		row, ok := v.workers[ws.Addr]
		if !ok {
			t.Fatalf("top has no row for %s", ws.Addr)
		}
		got := fleet.WorkerStats{Addr: ws.Addr, Up: row.up, Records: int64(row.records), Leases: row.leases, Fails: row.fails}
		if got != ws {
			t.Errorf("top row %+v, fleet result %+v", got, ws)
		}
	}
}
