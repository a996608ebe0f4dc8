// Package fleet coordinates one campaign across a fleet of ringd workers:
// the step from "one big box" to horizontal scale.
//
// The coordinator expands the scenario matrix exactly once — with the same
// deterministic campaign.Matrix.Expand every local sweep uses — and splits
// the index space [0, total) into contiguous lease ranges.  Each lease is
// dispatched to a worker as a POST /v1/campaign request carrying the matrix
// spec plus the range (?lo=&hi=, see internal/serve); the worker streams its
// records back as JSONL in index order, and a streaming merger reassembles
// the per-lease streams so the final records.jsonl is byte-identical to a
// single-machine run of the same spec.  That byte-identity is the package's
// core invariant, and it rests on three facts: expansion is deterministic,
// every record is a pure function of its scenario, and any partition of the
// index space into ranges merged back in index order reproduces the
// unsharded export (the generalization of the PR 1 shard-union property,
// pinned by test at both the campaign and the merger layer).
//
// Fault handling keeps a sweep moving instead of wedging it:
//
//   - A worker that dies mid-stream (connection drop, daemon kill) has the
//     unstreamed remainder of its lease re-queued and granted to another
//     worker; the records it already streamed stay merged, so nothing is
//     recomputed and nothing is lost.
//   - A straggling lease is split ("work stealing"): when workers sit idle
//     and no leases are pending, the coordinator shrinks the straggler to
//     [watermark, mid) and grants [mid, hi) to an idle worker.  The victim's
//     reader simply stops consuming at the new boundary, so victim and thief
//     never produce overlapping indices.
//   - A range that keeps failing is quarantined after three attempts and
//     reported in Result.Quarantined (and as a fleet.lease.quarantine event)
//     instead of blocking the merge; the sweep completes with a hole the
//     caller can see and re-run.
//   - A worker answering 429 (serve admission control) is backed off with a
//     jittered Retry-After delay; throttling is routine load-shedding, not a
//     lease failure.
//
// Workers arrive on the roster two ways: a static list (ringfarm
// -workers host:8080,host:8081) probed for liveness, and dynamic
// registration (ringd -join) through the coordinator's HTTP handler
// (POST /v1/fleet/join + periodic /v1/fleet/heartbeat, see roster.go).
//
// Everything the coordinator does is visible on the structured-event spine
// (internal/obs): fleet.worker.up/down, fleet.lease.grant/done/steal/fail/
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
	agent "ringsym/internal/fleet/worker"
	"ringsym/internal/obs"
)

// Options configures a fleet run.
type Options struct {
	// Workers is the static roster: worker base URLs as returned by
	// ParseWorkers.  It may be empty when the coordinator's Handler is
	// served and workers join dynamically (ringd -join).
	Workers []string
	// LeaseSize is the number of scenario indices per initial lease; 0
	// picks total/(4·workers) (at least 1) so every worker sees several
	// leases and a straggler costs at most a lease, not the sweep.
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
	// checks, heartbeat expiry, re-probing down workers); 0 selects
	// defaultProbeInterval.
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
	// stealMin is the smallest remaining range worth splitting off a
	// straggler.
	stealMin = 4
	// stallTimeout cancels a lease whose stream has made no progress for
	// this long (a wedged-but-connected worker).
	stallTimeout = 2 * time.Minute
	// heartbeatTimeout expires a dynamically joined worker that stopped
	// heartbeating and holds no lease.  Static workers never expire — they
	// are probed back to life after failures.
	heartbeatTimeout = 3 * agent.HeartbeatInterval
	// leasesPerWorker is the initial-split target: enough leases per worker
	// that re-leasing a failure costs a fraction of the sweep, few enough
	// that per-lease HTTP overhead stays negligible.
	leasesPerWorker = 4
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
// New, optionally serve Handler for dynamic joins, then call Run once.
type Coordinator struct {
	opts       Options
	matrixBody []byte
	total      int
	client     *http.Client

	mu          sync.Mutex
	roster      map[string]*worker
	pending     []*lease // granted in order; index 0 is next
	active      map[int]*lease
	nextLeaseID int
	quarantined []Range
	merger      *merger
	rng         *rand.Rand
	running     bool

	// kick wakes the grant loop after any state change (lease end, join,
	// heartbeat, probe success).  Buffered so notifiers never block.
	kick chan struct{}
}

// New expands the matrix once and prepares a coordinator over the static
// roster in opts.Workers (which ParseWorkers should have validated).  The
// expansion is the same deterministic campaign.Matrix.Expand a local sweep
// runs, so the coordinator's index space is exactly the one every worker
// recomputes from the posted spec.
func New(m campaign.Matrix, opts Options) (*Coordinator, error) {
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
	c.pending = c.initialLeases()
	for _, addr := range opts.Workers {
		c.addWorkerLocked(addr, false) // no lock needed yet: New is single-threaded
	}
	return c, nil
}

// initialLeases splits [0, total) into contiguous ranges of the configured
// (or derived) lease size.
func (c *Coordinator) initialLeases() []*lease {
	size := c.opts.LeaseSize
	if size <= 0 {
		workers := len(c.opts.Workers)
		if workers == 0 {
			// Listen-only roster: assume a small fleet will join.
			workers = 2
		}
		size = c.total / (leasesPerWorker * workers)
		if size < 1 {
			size = 1
		}
	}
	var out []*lease
	for lo := 0; lo < c.total; lo += size {
		hi := lo + size
		if hi > c.total {
			hi = c.total
		}
		out = append(out, c.newLease(lo, hi, 0))
	}
	return out
}

// Run drives the sweep to completion: granting leases, re-leasing failures,
// stealing from stragglers and merging streams, until every index is merged
// or quarantined.  It returns the context's error when cancelled mid-sweep,
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
		if c.stealLocked() {
			c.grantLocked(runCtx, &wg)
		}
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

// grantLocked hands pending leases to idle, live workers (sorted by address
// so the assignment is reproducible for a fixed roster and timing).
func (c *Coordinator) grantLocked(ctx context.Context, wg *sync.WaitGroup) {
	if len(c.pending) == 0 {
		return
	}
	for _, w := range c.sortedWorkersLocked() {
		if len(c.pending) == 0 {
			return
		}
		if !w.up || w.busy > 0 {
			continue
		}
		l := c.pending[0]
		c.pending = c.pending[1:]
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

// stealLocked splits the largest remaining range off a straggling active
// lease when workers would otherwise idle: the victim's bound shrinks to the
// midpoint of its remaining range and the split-off half joins the pending
// queue.  Returns true when a steal happened (the caller grants again).
func (c *Coordinator) stealLocked() bool {
	if len(c.pending) > 0 {
		return false
	}
	idle := 0
	for _, w := range c.roster {
		if w.up && w.busy == 0 {
			idle++
		}
	}
	if idle == 0 {
		return false
	}
	var victim *lease
	remaining := 0
	for _, l := range c.active {
		if r := l.hi - l.next; r > remaining {
			victim, remaining = l, r
		}
	}
	if victim == nil || remaining < stealMin {
		return false
	}
	mid := victim.next + remaining/2
	if mid <= victim.next || mid >= victim.hi {
		return false
	}
	stolen := c.newLease(mid, victim.hi, victim.attempts)
	victim.hi = mid
	c.pending = append(c.pending, stolen)
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.FleetLeaseSteal, Level: obs.LevelInfo, Worker: victim.worker, Lo: mid, Hi: stolen.hi})
	}
	return true
}

// housekeep runs the periodic liveness work: cancel stalled leases, expire
// silent dynamic workers, re-probe down workers.
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
		switch {
		case w.up && w.dynamic && w.busy == 0 && now-w.lastSeen > int64(heartbeatTimeout):
			c.markDownLocked(w, "heartbeat timeout")
		case !w.up && !w.probing && now >= w.retryAt:
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
// outcome: the one-call form of New + Coordinator.Run for static rosters.
func Run(ctx context.Context, m campaign.Matrix, opts Options) (Result, error) {
	c, err := New(m, opts)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx)
}
