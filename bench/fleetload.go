package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ringsym/internal/engine"
	"ringsym/internal/fleet"
	"ringsym/internal/serve"
)

// gridFleet runs the golden grid through fleet.Run against two in-process
// ringd workers (one pool worker each, cache off) on loopback servers.
type gridFleet struct {
	e       *env
	servers []*serve.Server
	https   []*httptest.Server
	timers  []*timed
	addrs   []string
	client  *http.Client
	local   *sweep // the same grid run locally: the fleet tax baseline and the replay
	buf     bytes.Buffer
}

func newGridFleet(ctx context.Context, e *env) (instance, error) {
	f := &gridFleet{
		e:      e,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		local:  &sweep{e: e, name: "grid-fleet", scenarios: e.grid, ref: e.gridRef, refSum: e.gridSum},
	}
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Options{Workers: 1})
		t := &timed{h: srv.Handler(), span: "fleet.lease"}
		ts := httptest.NewServer(t)
		f.servers, f.https, f.timers = append(f.servers, srv), append(f.https, ts), append(f.timers, t)
		f.addrs = append(f.addrs, ts.URL)
	}
	_, res, err := f.pass(ctx)
	if err == nil {
		err = f.check(res, nil)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// pass runs the grid through the fleet once; the timed region is the whole
// fleet.Run, from matrix expansion to the last merged record.
func (f *gridFleet) pass(ctx context.Context) (time.Duration, fleet.Result, error) {
	f.buf.Reset()
	start := time.Now()
	res, err := fleet.Run(ctx, gridMatrix, fleet.Options{
		Workers: f.addrs, Records: &f.buf, Client: f.client, JitterSeed: f.e.cfg.seed,
	})
	return time.Since(start), res, err
}

// check verifies the merged artefact against the golden sweep.
func (f *gridFleet) check(res fleet.Result, acc *checks) error {
	n := len(f.e.grid)
	switch {
	case len(res.Quarantined) > 0:
		return failWith(acc, "grid-fleet", n, "quarantined ranges %v", res.Quarantined)
	case res.Merged != n:
		return failWith(acc, "grid-fleet", n, "merged %d of %d records", res.Merged, n)
	case sha256.Sum256(f.buf.Bytes()) != f.e.gridSum:
		bad := diffLines(f.buf.Bytes(), f.e.gridRef)
		return failWith(acc, "grid-fleet", max(bad, 1), "%d of %d merged records differ from the golden sweep", bad, n)
	}
	return nil
}

func (f *gridFleet) measure(ctx context.Context, deadline time.Time, acc *e2eAcc) (int, time.Duration, error) {
	var done int
	var wall time.Duration
	for {
		d, res, err := f.pass(ctx)
		if err != nil {
			return 0, 0, err
		}
		acc.attempted += int64(len(f.e.grid))
		acc.latencyUS = append(acc.latencyUS, float64(d.Nanoseconds())/1e3)
		done += len(f.e.grid)
		wall += d
		f.check(res, &acc.checks)
		if !time.Now().Before(deadline) {
			return done, wall, nil
		}
	}
}

// trace alternates an untraced fleet pass, a traced one (every lease timed
// on the worker side), a local pass of the same grid (the fleet tax is the
// difference) and a replay of the scenario work the workers do.
func (f *gridFleet) trace(ctx context.Context, deadline time.Time, acc *traceAcc) error {
	n := len(f.e.grid)
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := engine.CounterSnapshot()
		wallU, res, err := f.pass(ctx)
		if err != nil {
			return err
		}
		c1 := engine.CounterSnapshot()
		runtime.ReadMemStats(&m1)
		acc.attempted += int64(n)
		f.check(res, &acc.checks)
		acc.programWall += wallU
		acc.programScen += n
		acc.untracedWall += wallU
		acc.untracedOps += n
		acc.rounds += c1.Rounds - c0.Rounds
		acc.crossings += c1.LeapBatches - c0.LeapBatches
		acc.mallocs += m1.Mallocs - m0.Mallocs
		acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc

		for _, t := range f.timers {
			t.acc.Store(acc)
		}
		wallT, res, err := f.pass(ctx)
		for _, t := range f.timers {
			t.acc.Store(nil)
		}
		if err != nil {
			return err
		}
		acc.attempted += int64(n)
		f.check(res, &acc.checks)
		acc.tracedWall += wallT
		acc.tracedOps += n
		acc.passes++
		for _, t := range f.timers {
			for _, h := range t.drain() {
				acc.leases++
				acc.leaseMS = append(acc.leaseMS, float64(h.d.Microseconds())/1e3)
				acc.leaseBytes += h.bytes
			}
		}

		p, err := f.local.pass(ctx, poolWorkers)
		if err != nil {
			return err
		}
		acc.attempted += int64(n)
		f.local.check(p, &acc.checks)
		acc.taxUS = append(acc.taxUS, float64((wallU-p.wall).Nanoseconds())/1e3/float64(n))
		bad, err := f.local.replayPass(ctx, acc, p)
		if err != nil {
			return err
		}
		if bad > 0 {
			acc.fail(bad, "%d replayed records differ from the program's", bad)
		}
		acc.fold(wallU)
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

func (f *gridFleet) counts() map[string]uint64 {
	return map[string]uint64{"records": uint64(len(f.e.grid))}
}

func (f *gridFleet) close() error {
	f.client.CloseIdleConnections()
	for i := range f.https {
		f.https[i].Close()
		f.servers[i].Close()
	}
	return nil
}

// timed wraps a server's handler.  While acc is set, every request is timed
// as a flat span and its response bytes are counted; the workload drains
// the finished requests after each traced operation.
type timed struct {
	h    http.Handler
	span string
	acc  atomic.Pointer[traceAcc]
	mu   sync.Mutex
	done []handled
}

// handled is one timed request.
type handled struct {
	seq   string // the request's sequence header (serve-mixed)
	d     time.Duration
	bytes int64
}

// seqHeader carries a serve-mixed request's sequence number, so the
// client's latency can be split into handler and transport time.
const seqHeader = "Ringbench-Seq"

func (t *timed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	acc := t.acc.Load()
	if acc == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	t.h.ServeHTTP(cw, r)
	end := time.Now()
	acc.record(t.span, start, end)
	t.mu.Lock()
	t.done = append(t.done, handled{seq: r.Header.Get(seqHeader), d: end.Sub(start), bytes: cw.n})
	t.mu.Unlock()
}

func (t *timed) drain() []handled {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.done
	t.done = nil
	return out
}

// countingWriter counts response bytes.  Unwrap keeps the serve layer's
// per-write deadlines and flushes working through http.ResponseController.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }
