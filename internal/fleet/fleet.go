// Package fleet coordinates one campaign across a fleet of ringd workers:
// the step from "one big box" to horizontal scale.
//
// The coordinator expands the scenario matrix exactly once — with the same
// deterministic campaign.Matrix.Expand every local sweep uses — and carves
// the index space [0, total) into contiguous lease ranges as workers go
// idle.  Each lease is dispatched to a worker as a POST /v1/campaign request
// carrying the matrix spec plus the range (?lo=&hi=, see internal/serve); the
// worker streams its records back as JSONL in index order, and a streaming
// merger reassembles the per-lease streams so the final records.jsonl is
// byte-identical to a single-machine run of the same spec.  That
// byte-identity is the package's core invariant, and it rests on three
// facts: expansion is deterministic, every record is a pure function of its
// scenario, and any partition of the index space into ranges merged back in
// index order reproduces the unsharded export (the generalization of the
// shard-union property, pinned by test at both the campaign and the merger
// layer).
//
// Leases are sized by guided self-scheduling: each new lease takes
// ⌈unleased/workers⌉ indices from the front of the never-leased tail, capped
// at the first lease's ⌈total/(2·workers)⌉ (at least 2, at most
// Options.LeaseSize when set), so early leases are long and few — each lease
// boundary idles its worker for a round trip — and the last ones are short
// enough that the workers finish together.  A lease's range never changes
// once granted, and every index is asked of a worker once on a healthy
// fleet.
//
// Fault handling keeps a sweep moving instead of wedging it:
//
//   - A worker that dies mid-stream (connection drop, daemon kill) has the
//     unstreamed remainder of its lease re-queued and granted to another
//     worker ahead of new carving; the records it already streamed stay
//     merged, so nothing is recomputed and nothing is lost.
//   - A range that keeps failing is quarantined after three attempts and
//     reported in Result.Quarantined (and as a fleet.lease.quarantine event)
//     instead of blocking the merge; the sweep completes with a hole the
//     caller can see and re-run.
//   - A worker answering 429 (serve admission control) is backed off with a
//     jittered Retry-After delay; throttling is routine load-shedding, not a
//     lease failure.
//   - A stream that makes no progress for two minutes (a wedged but
//     connected worker) is cancelled and its remainder re-queued.
//
// The fleet is a static roster (ringfarm -workers host:8080,host:8081) of
// independent ringd daemons.  They talk to the coordinator only through
// leases and never to each other; a worker marked down is re-probed on
// /healthz, so a restarted daemon rejoins the sweep on its own.
//
// Everything the coordinator does is visible on the structured-event spine
// (internal/obs): fleet.worker.up/down, fleet.lease.grant/done/fail/
// quarantine, plus the standard campaign.start/checkpoint/finish and a
// scenario.finish per merged record, so `ringfarm top` renders fleet sweeps
// — including per-worker rows — exactly like local ones.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/obs"
)

// Options configures a fleet run.
type Options struct {
	// Workers is the roster: worker base URLs as returned by ParseWorkers.
	// It must not be empty.
	Workers []string
	// LeaseSize, when positive, caps the number of scenario indices per
	// lease; 0 leaves the guided sizing uncapped (see the package doc).
	LeaseSize int
	// JitterSeed seeds the backoff jitter; 0 uses a fixed seed.  The seed
	// only shapes retry timing, never artefact bytes.
	JitterSeed int64
	// Records, when non-nil, receives the merged JSONL stream: every
	// worker-produced record line, byte for byte, in scenario-index order.
	// A write error ends the run (see Coordinator.Run).
	Records io.Writer
	// OnRecord, when non-nil, is called for every merged record in
	// scenario-index order (after its line reached Records).  Callers use
	// it for aggregation and progress; it runs under the coordinator's
	// lock, so it must not call back into the Coordinator.
	OnRecord func(campaign.Record)
	// Client is the HTTP client for worker requests; defaults to a
	// deadline-free client with a transport of its own (campaign streams
	// are long-lived; per-stream liveness is the stall watchdog's job).
	// Run closes the client's idle connections when it returns.
	Client *http.Client

	// maxAttempts bounds how often one range is re-leased after failures
	// before it is quarantined; 0 selects defaultMaxAttempts.
	maxAttempts int
	// probeInterval is the coordinator's housekeeping cadence (stall
	// checks, re-probing down workers); 0 selects defaultProbeInterval.
	probeInterval time.Duration
	// retryBase is the base delay for jittered backoff after a 429 without
	// a Retry-After hint; 0 selects defaultRetryBase.  Tests shrink all
	// three to keep fault scenarios fast.
	retryBase time.Duration
}

const (
	defaultMaxAttempts   = 3
	defaultProbeInterval = 500 * time.Millisecond
	defaultRetryBase     = 250 * time.Millisecond
	// stallTimeout cancels a lease whose stream has made no progress for
	// this long (a wedged-but-connected worker).
	stallTimeout = 2 * time.Minute
	// minLease is the smallest lease carved while at least that many indices
	// are unleased: a one-index lease pays a whole round trip for one
	// scenario.
	minLease = 2
)

// Range is a contiguous scenario-index range [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// WorkerStats reports one worker's contribution to a finished run.
type WorkerStats struct {
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Up reports the worker's liveness at the end of the run.
	Up bool `json:"up"`
	// Records is the number of record lines the worker streamed into the
	// merge.
	Records int64 `json:"records"`
	// Leases is the number of leases the worker completed.
	Leases int `json:"leases"`
	// Fails is the number of lease attempts that failed on the worker.
	Fails int `json:"fails"`
}

// Result summarises a finished (or cancelled) fleet run.
type Result struct {
	// Total is the size of the expanded index space.
	Total int `json:"total"`
	// Merged is the number of records merged into the output.
	Merged int `json:"merged"`
	// Quarantined lists the index ranges abandoned after three failed lease
	// attempts, sorted by Lo.  Empty on a clean run — and only then is the
	// output byte-identical to a single-machine sweep.
	Quarantined []Range `json:"quarantined,omitempty"`
	// Workers reports per-worker contributions, sorted by address.
	Workers []WorkerStats `json:"workers"`
}

// Coordinator drives one campaign across a worker fleet.  Construct with
// New, then call Run once.
type Coordinator struct {
	opts       Options
	matrixBody []byte
	total      int
	client     *http.Client

	mu          sync.Mutex
	roster      map[string]*worker
	pending     []*lease // failed remainders, re-leased in order before new carving
	cursor      int      // first index never leased
	active      map[int]*lease
	nextLeaseID int
	quarantined []Range
	merger      *merger
	rng         *rand.Rand
	running     bool

	// kick wakes the grant loop after any state change (lease end, probe
	// success).  Buffered so notifiers never block.
	kick chan struct{}
}

// New expands the matrix once and prepares a coordinator over the roster in
// opts.Workers (which ParseWorkers should have validated; an empty roster is
// an error).  The expansion is the same deterministic campaign.Matrix.Expand
// a local sweep runs, so the coordinator's index space is exactly the one
// every worker recomputes from the posted spec.
func New(m campaign.Matrix, opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers")
	}
	scenarios, err := m.Expand()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding matrix spec: %w", err)
	}
	if opts.maxAttempts <= 0 {
		opts.maxAttempts = defaultMaxAttempts
	}
	if opts.probeInterval <= 0 {
		opts.probeInterval = defaultProbeInterval
	}
	if opts.retryBase <= 0 {
		opts.retryBase = defaultRetryBase
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = 1
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	}
	c := &Coordinator{
		opts:       opts,
		matrixBody: body,
		total:      len(scenarios),
		client:     client,
		roster:     make(map[string]*worker),
		active:     make(map[int]*lease),
		merger:     newMerger(len(scenarios), opts.Records, opts.OnRecord),
		rng:        rand.New(rand.NewSource(seed)),
		kick:       make(chan struct{}, 1),
	}
	for _, addr := range opts.Workers {
		c.addWorkerLocked(addr) // no lock needed yet: New is single-threaded
	}
	return c, nil
}

// Run drives the sweep to completion: carving and granting leases,
// re-leasing failures and merging streams, until every index is merged or
// quarantined.  It returns the context's error when cancelled mid-sweep,
// and the first error writing to Options.Records, which stops the sweep; a
// completed run with failures reports them in Result.Quarantined instead of
// an error, so a partial artefact is always accompanied by an exact account
// of its holes.  Run must be called at most once.
func (c *Coordinator) Run(ctx context.Context) (res Result, err error) {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return Result{}, fmt.Errorf("fleet: Run called twice")
	}
	c.running = true
	c.mu.Unlock()

	if obs.On() {
		obs.Emit(obs.Event{Type: obs.CampaignStart, Level: obs.LevelInfo, Total: c.total})
	}

	// Every worker request derives from runCtx.  Returning from Run —
	// completion or cancellation — cuts every in-flight stream (one that
	// owes nothing more is retired, not failed), then waits for the stream
	// goroutines, so the caller owns the Records sink again and res, taken
	// last, counts every retired lease.  No keep-alive to a worker outlives
	// Run: whether a last stream ended cleanly or was cut depends on
	// timing, and what a finished run holds on to should not.
	runCtx, cancelAll := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancelAll()
		wg.Wait()
		c.client.CloseIdleConnections()
		res = c.result()
	}()

	ticker := time.NewTicker(c.opts.probeInterval)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		c.grantLocked(runCtx, &wg)
		done, werr := c.merger.done(), c.merger.err
		c.mu.Unlock()
		if werr != nil {
			return Result{}, werr
		}
		if done {
			break
		}
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-c.kick:
		case <-ticker.C:
			c.housekeep(runCtx)
		}
	}
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.CampaignFinish, Level: obs.LevelInfo, Done: c.merger.Written(), Total: c.total})
	}
	return Result{}, nil
}

// kickLoop wakes the grant loop; safe under or outside the lock.
func (c *Coordinator) kickLoop() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// grantLocked hands work to idle, live workers (sorted by address so the
// assignment is reproducible for a fixed roster and timing): a pending failed
// remainder first, else a lease carved from the unleased tail.
func (c *Coordinator) grantLocked(ctx context.Context, wg *sync.WaitGroup) {
	for _, w := range c.sortedWorkersLocked() {
		if !w.up || w.busy > 0 {
			continue
		}
		var l *lease
		if len(c.pending) > 0 {
			l, c.pending = c.pending[0], c.pending[1:]
		} else if l = c.carveLocked(); l == nil {
			return
		}
		l.worker = w.addr
		l.lastProgress = obs.Now()
		w.busy++
		c.active[l.id] = l
		if obs.On() {
			obs.Emit(obs.Event{Type: obs.FleetLeaseGrant, Level: obs.LevelInfo, Worker: w.addr, Lo: l.next, Hi: l.hi})
		}
		wg.Add(1)
		go func(w *worker, l *lease) {
			defer wg.Done()
			c.runLease(ctx, w, l)
		}(w, l)
	}
}

// carveLocked takes the next lease from the front of the never-leased tail
// [cursor, total), or returns nil when every index has been leased.  The
// size is ⌈(total−cursor)/workers⌉ capped at the first lease's
// ⌈total/(2·workers)⌉, at least minLease and at most Options.LeaseSize when
// that is set, clipped to what is left: leases stay at the cap until half
// the indices are leased, then shrink with the tail, so the workers' last
// leases end close together.
func (c *Coordinator) carveLocked() *lease {
	left := c.total - c.cursor
	if left == 0 {
		return nil
	}
	workers := len(c.roster)
	size := max(minLease, min(ceilDiv(left, workers), ceilDiv(c.total, 2*workers)))
	if c.opts.LeaseSize > 0 {
		size = min(size, c.opts.LeaseSize)
	}
	size = min(size, left)
	l := c.newLease(c.cursor, c.cursor+size, 0)
	c.cursor += size
	return l
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// housekeep runs the periodic liveness work: cancel stalled leases and
// re-probe down workers.
func (c *Coordinator) housekeep(ctx context.Context) {
	now := obs.Now()
	var probes []*worker
	c.mu.Lock()
	for _, l := range c.active {
		if now-l.lastProgress > int64(stallTimeout) {
			l.lastProgress = now // one cancellation per stall detection
			l.cancel()
		}
	}
	for _, w := range c.sortedWorkersLocked() {
		if !w.up && !w.probing && now >= w.retryAt {
			w.probing = true
			probes = append(probes, w)
		}
	}
	c.mu.Unlock()
	for _, w := range probes {
		go c.probe(ctx, w)
	}
}

// result snapshots the run outcome.
func (c *Coordinator) result() Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := Result{
		Total:       c.total,
		Merged:      c.merger.Written(),
		Quarantined: append([]Range(nil), c.quarantined...),
	}
	sort.Slice(res.Quarantined, func(i, j int) bool { return res.Quarantined[i].Lo < res.Quarantined[j].Lo })
	for _, w := range c.roster {
		res.Workers = append(res.Workers, WorkerStats{
			Addr: w.addr, Up: w.up, Records: w.records, Leases: w.completed, Fails: w.fails,
		})
	}
	sort.Slice(res.Workers, func(i, j int) bool { return res.Workers[i].Addr < res.Workers[j].Addr })
	return res
}

// Run executes the matrix across the fleet in opts and returns the merged
// outcome: the one-call form of New + Coordinator.Run.
func Run(ctx context.Context, m campaign.Matrix, opts Options) (Result, error) {
	c, err := New(m, opts)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx)
}
