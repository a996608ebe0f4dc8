// Package serve is the HTTP serving layer of the simulator: a long-lived
// daemon (cmd/ringd) that executes ring-network scenarios on demand instead
// of batch sweeps.
//
// All requests share the daemon's own bounded pool of Workers computes, so
// a burst of clients queues instead of oversubscribing the machine.  A
// /v1/campaign request's scenarios run on the pool's worker goroutines,
// through campaign.Slot.Run, the same per-scenario pipeline an offline
// sweep runs, on the request's own free list of reused networks.  A /v1/run
// scenario, prepared once by its handler for the cache probe, runs on the
// handler's goroutine under one of the pool's tokens, on a fresh network.
// No Options field reaches a record except through the cache annotation,
// so the daemon writes a sweep's bytes for every scenario.  Every request
// shares the optional symmetry-canonical memo cache (internal/memo keyed by
// internal/canon): two clients asking for rotations of the same ring are
// served one computation.  Request contexts are threaded through to the
// engine, so a disconnected or cancelled client stops burning CPU within
// one simulated round (unless another in-flight client is waiting on the
// same canonical computation).
//
// Endpoints:
//
//	POST /v1/run       one scenario in, one campaign.Record out (JSON)
//	POST /v1/campaign  a campaign.Matrix spec in, records out as streamed
//	                   JSONL in scenario-index order; the optional ?lo= and
//	                   ?hi= query parameters restrict the response to the
//	                   scenario-index range [lo, hi) of the expanded matrix,
//	                   so a fleet coordinator (internal/fleet) can lease
//	                   contiguous ranges of one sweep to many daemons and
//	                   concatenate the streams back byte-identically
//	GET  /v1/tasks     the paper's two tasks, each with its
//	                   description (JSON array, sorted by name)
//	GET  /v1/events    the live structured-event stream (internal/obs) as
//	                   NDJSON, with ?types= and ?level= client-side filters;
//	                   each subscriber gets a bounded queue that drops (and
//	                   counts) rather than ever back-pressuring the workers
//	GET  /healthz      liveness: {"status":"ok"}
//	GET  /metrics      throughput and cache counters (JSON)
//	GET  /metrics/prometheus  the same counters plus every obs-registered
//	                   metric, in Prometheus text exposition format
//
// With Options.MaxPending, the daemon sheds load instead of queueing
// unboundedly: when the count of scenarios queued or running on the pool
// reaches the cap, /v1/run and /v1/campaign answer 429 with a Retry-After
// header (counted in /metrics as throttled) rather than parking another
// handler on the pool.  Clients — the fleet coordinator among them — are
// expected to back off and retry.
//
// With Options.Pprof, the net/http/pprof handlers are additionally served
// under /debug/pprof/.
//
// Both tasks of internal/task are servable; requests naming any other task
// fail with 400 and an error listing the two.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/engine"
	"ringsym/internal/memo"
	"ringsym/internal/obs"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// Options configures a Server.
type Options struct {
	// Workers is the size of the shared scenario pool, the number of
	// scenarios computing at once on its worker goroutines and in /v1/run
	// handlers; defaults to GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoises outcomes across requests under their
	// canonical symmetry key.
	Cache *campaign.Cache
	// Store, when non-nil, is the persistent result store reported in the
	// metrics.  Attaching it under Cache as a tier is the caller's job
	// (campaign.Cache.AttachTier); the serve layer only reports it.
	Store *store.Store
	// MaxN caps the network size of any requested scenario; defaults to
	// 4096.  Unbounded n would let a single request pin a worker for
	// minutes and allocate O(n) engine state — a denial of service, not a
	// legitimate workload.
	MaxN int
	// Pprof additionally serves the net/http/pprof profiling handlers under
	// /debug/pprof/.  Off by default: profiling endpoints on a production
	// daemon are opt-in.
	Pprof bool
	// MaxPending, when positive, is the admission-control cap on scenarios
	// queued or running on the worker pool: a /v1/run or /v1/campaign
	// request arriving while the count is at the cap is rejected with 429
	// and a Retry-After header instead of parking its handler in the
	// submission queue.  Cache-hit probes are exempt — they never occupy a
	// worker.  0 disables admission control (the pre-fleet behaviour:
	// handlers queue without bound).
	MaxPending int
}

const (
	// maxCampaignScenarios caps the expansion of one /v1/campaign request.
	maxCampaignScenarios = 100000
	defaultMaxN          = 4096
	// eventBuffer is the per-subscriber queue capacity of GET /v1/events in
	// events.  A subscriber that falls further behind loses events (counted
	// in the obs bus drop counter and the metrics snapshot) instead of
	// slowing any producer down.
	eventBuffer = 4096
	// writeTimeout bounds each response write (per record on streaming
	// endpoints, so long campaigns are fine as long as the client keeps
	// reading).  Without it, a client that stops reading its stream would
	// block its handler in Write forever and, through the full delivery
	// channel, wedge every shared worker.
	writeTimeout = 30 * time.Second
)

// maxBodyBytes bounds request bodies; matrix specs and scenarios are tiny.
const maxBodyBytes = 1 << 20

// Server executes scenarios for HTTP clients on a shared worker pool.
// Construct with New, serve via Handler, stop with Close.
type Server struct {
	opts  Options
	jobs  chan job
	quit  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	runRequests      atomic.Uint64
	campaignRequests atomic.Uint64
	badRequests      atomic.Uint64
	throttled        atomic.Uint64
	records          atomic.Uint64
	failed           atomic.Uint64
	cancelled        atomic.Uint64
	// pending counts scenarios queued or running on the pool, including
	// submissions currently parked in submit: the value admission control
	// compares against Options.MaxPending.
	pending atomic.Int64
	// tokens holds one token per scenario computing, on a pool worker or in
	// a /v1/run handler (see compute): its capacity, Options.Workers, bounds
	// the computes in flight.
	tokens chan struct{}
}

// job is one /v1/campaign scenario submitted to the pool.  The worker
// delivers the record on out unless the request context is cancelled first.
// slots is the submitting request's free list of network slots (see run),
// so a campaign resets one network per job it has running at a time instead
// of building one per scenario.
type job struct {
	ctx   context.Context
	sc    campaign.Scenario
	out   chan<- campaign.Record
	slots chan *campaign.Slot
}

// New starts the worker pool and returns the server.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxN <= 0 {
		opts.MaxN = defaultMaxN
	}
	s := &Server{
		opts:   opts,
		jobs:   make(chan job),
		quit:   make(chan struct{}),
		start:  time.Now(),
		tokens: make(chan struct{}, opts.Workers),
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops the worker pool after in-flight scenarios finish their current
// request.  Submissions after (or racing with) Close fail with 503; Close is
// idempotent-unsafe and must be called exactly once, after the HTTP server
// stopped accepting requests.  A /v1/run scenario computes on its handler's
// goroutine, which the HTTP server's shutdown waits for.
func (s *Server) Close() {
	close(s.quit)
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			s.tokens <- struct{}{}
			rec := s.run(j)
			<-s.tokens
			s.finished(j.ctx, rec)
			select {
			case j.out <- rec:
			case <-j.ctx.Done():
			}
		}
	}
}

// finished counts a computed scenario: it leaves the pending count and joins
// the records, and a failed one the failures or the cancellations.
func (s *Server) finished(ctx context.Context, rec campaign.Record) {
	s.pending.Add(-1)
	s.records.Add(1)
	if rec.Status == campaign.StatusFailed {
		// A run aborted because its client went away is routine serving
		// churn, not a protocol failure; alerting on the failed counter must
		// not fire for disconnects.  The error text is consulted too: a
		// genuine failure that merely races a disconnect must still count
		// as failed.
		if err := ctx.Err(); err != nil && strings.Contains(rec.Error, err.Error()) {
			s.cancelled.Add(1)
		} else {
			s.failed.Add(1)
		}
	}
}

// run executes one job on a slot taken from the job's free list, or on a
// new slot when the list is empty, and returns the slot to the list.
// Neither step blocks: the list holds at most one slot per pool worker, and
// a worker holds at most one slot at a time.
func (s *Server) run(j job) campaign.Record {
	var slot *campaign.Slot
	select {
	case slot = <-j.slots:
	default:
		slot = &campaign.Slot{}
	}
	rec := slot.Run(j.ctx, j.sc, s.campaignOptions())
	select {
	case j.slots <- slot:
	default:
	}
	return rec
}

func (s *Server) campaignOptions() campaign.Options {
	return campaign.Options{Cache: s.opts.Cache}
}

// errServerClosed reports a submission racing with shutdown.
var errServerClosed = errors.New("serve: server is shutting down")

// submit hands a /v1/campaign scenario to the pool and returns immediately
// once a worker accepted it; the record arrives on out.  The pending count
// covers the whole wait: a submission parked here is exactly the queueing
// admission control exists to bound.
func (s *Server) submit(j job) error {
	s.pending.Add(1)
	select {
	case s.jobs <- j:
		return nil
	case <-j.ctx.Done():
		s.pending.Add(-1)
		return j.ctx.Err()
	case <-s.quit:
		s.pending.Add(-1)
		return errServerClosed
	}
}

// compute runs a /v1/run scenario, prepared by its handler, on the
// handler's own goroutine once it holds one of the pool's tokens, and on a
// fresh network: a miss pays no handoff to a pool worker and back.  Like a
// submission, it counts as pending while it waits and runs, and it fails
// with errServerClosed after Close.
func (s *Server) compute(ctx context.Context, prep campaign.Prepared) (campaign.Record, error) {
	s.pending.Add(1)
	// A closed pool refuses the scenario even when a token is free.
	select {
	case <-s.quit:
		s.pending.Add(-1)
		return campaign.Record{}, errServerClosed
	default:
	}
	select {
	case s.tokens <- struct{}{}:
	case <-ctx.Done():
		s.pending.Add(-1)
		return campaign.Record{}, ctx.Err()
	case <-s.quit:
		s.pending.Add(-1)
		return campaign.Record{}, errServerClosed
	}
	rec := (*campaign.Slot)(nil).RunPrepared(ctx, prep)
	<-s.tokens
	s.finished(ctx, rec)
	return rec, nil
}

// saturated reports whether admission control should shed the request.
func (s *Server) saturated() bool {
	return s.opts.MaxPending > 0 && s.pending.Load() >= int64(s.opts.MaxPending)
}

// throttle answers a request shed by admission control: 429 with a
// Retry-After hint, counted separately from bad requests (the client did
// nothing wrong) and visible on the event spine as a serve.reject.
func (s *Server) throttle(w http.ResponseWriter, r *http.Request) {
	s.throttled.Add(1)
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.ServeReject, Level: obs.LevelWarn, Endpoint: r.URL.Path, Err: "worker pool saturated"})
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(map[string]string{"error": "worker pool saturated; retry after backoff"})
}

// Handler returns the HTTP handler exposing the daemon's endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /v1/tasks", s.handleTasks)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/prometheus", s.handleMetricsPrometheus)
	if s.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// TaskInfo is one entry of GET /v1/tasks.
type TaskInfo struct {
	// Name is the value to put in Scenario.Task / Matrix.Tasks.
	Name string `json:"name"`
	// Description is the task's one-line human summary.
	Description string `json:"description"`
}

// handleTasks lists the tasks, sorted by name, so clients can discover
// runnable workloads instead of hardcoding them.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	names := task.Names()
	out := make([]TaskInfo, len(names))
	for i, name := range names {
		spec, _ := task.Lookup(name) // every listed name resolves
		out[i] = TaskInfo{Name: name, Description: spec.Description()}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// httpError writes a JSON error body with the given status.  Only 4xx
// responses count as bad requests (and emit serve.reject): a 503 from a
// submission racing graceful shutdown is server-side churn, not malformed
// client input.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if status >= 400 && status < 500 {
		s.badRequests.Add(1)
		if obs.On() {
			obs.Emit(obs.Event{Type: obs.ServeReject, Level: obs.LevelWarn, Endpoint: r.URL.Path, Err: err.Error()})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// noteRequest counts an accepted request and emits its serve.request event.
func (s *Server) noteRequest(ctr *atomic.Uint64, r *http.Request) {
	ctr.Add(1)
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.ServeRequest, Level: obs.LevelDebug, Endpoint: r.URL.Path})
	}
}

// decodeStrict decodes exactly one JSON value from the (size-bounded) body,
// rejecting unknown fields and trailing garbage.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// validateScenario normalises a client-supplied scenario: the task and model
// must parse, n must satisfy the paper's n > 4 and the daemon's size cap,
// a zero identifier bound defaults to the campaign's 4n, and the bound must
// lie in [n, campaign.MaxIDBound].
func (s *Server) validateScenario(sc *campaign.Scenario) error {
	// Normalize the casing Lookup and ParseModel tolerate: the task and
	// model names feed the symmetry cache key and the record verbatim, so
	// "Coordinate" or "Basic" must not fragment the cache (or the records)
	// away from the lowercase names a sweep writes.
	sc.Task = campaign.Task(strings.ToLower(string(sc.Task)))
	sc.Model = strings.ToLower(sc.Model)
	if _, err := task.Lookup(string(sc.Task)); err != nil {
		return err
	}
	if _, err := campaign.ParseModel(sc.Model); err != nil {
		return err
	}
	if sc.N < 5 {
		return fmt.Errorf("n = %d too small (the paper needs n > 4)", sc.N)
	}
	if sc.N > s.opts.MaxN {
		return fmt.Errorf("n = %d above this daemon's limit of %d", sc.N, s.opts.MaxN)
	}
	if sc.CommonSense && sc.MixedChirality {
		return errors.New("common_sense contradicts mixed_chirality (the promise would be violated)")
	}
	if sc.IDBound == 0 {
		sc.IDBound = 4 * sc.N
	}
	if sc.IDBound < sc.N {
		return fmt.Errorf("id_bound %d < n %d (identifiers are distinct)", sc.IDBound, sc.N)
	}
	if sc.IDBound > campaign.MaxIDBound {
		return fmt.Errorf("id_bound %d above the limit of %d", sc.IDBound, campaign.MaxIDBound)
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var sc campaign.Scenario
	if err := decodeStrict(w, r, &sc); err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad scenario: %w", err))
		return
	}
	if err := s.validateScenario(&sc); err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad scenario: %w", err))
		return
	}
	s.noteRequest(&s.runRequests, r)
	// Cache hits are answered on this request goroutine: joining the pool
	// for a no-work lookup would let a burst of identical requests park
	// workers that unrelated clients need.  The probe's own cost —
	// generation plus canonicalization — is O(n) expected (the lexicographic
	// candidate scan resolves at the first gap for the distinct random gaps
	// netgen produces; the O(n^2) worst case needs equal gaps, which no
	// Scenario can request), i.e. well under a millisecond at MaxN.  A miss
	// runs the prepared scenario, so it is prepared once.
	prep := campaign.Prepare(sc, s.campaignOptions())
	if rec, ok := prep.Probe(); ok {
		s.records.Add(1)
		s.writeRecord(w, r, rec)
		return
	}
	// Admission control sits after the probe on purpose: a cache hit costs
	// no worker, so a saturated pool can keep answering the already-computed
	// universe while shedding fresh work.
	if s.saturated() {
		s.throttle(w, r)
		return
	}
	// The client's context reaches the engine, so a disconnect aborts the
	// run within one round.
	rec, err := s.compute(r.Context(), prep)
	if err != nil {
		if errors.Is(err, errServerClosed) {
			s.httpError(w, r, http.StatusServiceUnavailable, err)
		}
		return // client gone; nothing to write
	}
	s.writeRecord(w, r, rec)
}

// writeRecord answers a /v1/run request with its record: the bytes a
// json.Encoder would write, json.Marshal plus a newline, in one Write with
// an explicit Content-Length and no flush, so net/http sends the whole
// response in one write when the handler returns.  A record is small, so
// the Write lands in the connection's buffers instead of blocking on a
// client that stopped reading, and needs none of deadlineWriter's deadline.
func (s *Server) writeRecord(w http.ResponseWriter, r *http.Request, rec campaign.Record) {
	b, err := json.Marshal(rec)
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	b = append(b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var m campaign.Matrix
	if err := decodeStrict(w, r, &m); err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad matrix spec: %w", err))
		return
	}
	if s.saturated() {
		s.throttle(w, r)
		return
	}
	// Bound the request BEFORE expansion: Expand allocates one Scenario per
	// axis-product element, so a malicious spec with huge axes must be
	// rejected from the axis lengths alone, not after the allocation.
	bound, maxN := m.UpperBounds()
	if bound > maxCampaignScenarios {
		s.httpError(w, r, http.StatusBadRequest,
			fmt.Errorf("matrix expands to up to %d scenarios, above the limit of %d", bound, maxCampaignScenarios))
		return
	}
	if maxN > s.opts.MaxN {
		s.httpError(w, r, http.StatusBadRequest,
			fmt.Errorf("matrix contains n = %d, above this daemon's limit of %d", maxN, s.opts.MaxN))
		return
	}
	scenarios, err := m.Expand()
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	// The optional ?lo=&hi= range restricts the response to a contiguous
	// slice of the expanded index space.  The matrix is still expanded (and
	// bounded) in full — determinism demands the coordinator and every
	// worker agree on the global index assignment — and the slice keeps the
	// original indices, so concatenating the streams of a partition of
	// [0, len) reproduces the unsharded export byte for byte.
	scenarios, err = sliceRange(r, scenarios)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	s.noteRequest(&s.campaignRequests, r)
	ctx := r.Context()

	// Feed the pool from a separate goroutine so records stream back (in
	// scenario-index order, via OrderedWriter) while later scenarios are
	// still queueing.  On a cached daemon the feed is decorrelated so a
	// symmetric matrix's adjacent framings don't pile the shared workers —
	// which every client depends on — onto one singleflight computation;
	// the reorder horizon is bounded, so OrderedWriter buffers at most a
	// window of out-of-order records per request.
	feed := scenarios
	if s.opts.Cache != nil {
		feed = campaign.DecorrelateOrbits(scenarios)
	}
	out := make(chan campaign.Record, s.opts.Workers)
	// The request's free list of network slots (see job): at most one per
	// pool worker, and garbage once the request ends, so no network outlives
	// the lease that used it.
	slots := make(chan *campaign.Slot, s.opts.Workers)
	go func() {
		for _, sc := range feed {
			if s.submit(job{ctx: ctx, sc: sc, out: out, slots: slots}) != nil {
				return
			}
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	writer := campaign.NewOrderedWriter(deadlineWriter(w), scenarios)
	for received := 0; received < len(scenarios); received++ {
		select {
		case rec := <-out:
			if err := writer.Add(rec); err != nil {
				return // client gone mid-stream; ctx cancellation unwinds the rest
			}
		case <-ctx.Done():
			return
		case <-s.quit:
			// Pool shutdown racing the stream: the feeder has stopped
			// submitting, so the remaining records will never arrive;
			// terminate the (truncated) response instead of stalling it.
			return
		}
	}
	// All records received, so Flush has nothing pending; it only guards
	// against programming errors (a record outside the scenario list).
	writer.Flush()
}

// sliceRange applies the optional ?lo=&hi= scenario-index range of a
// campaign request: absent parameters default to the full expansion, and the
// bounds must satisfy 0 <= lo <= hi <= len(scenarios).  lo == hi is a legal
// empty lease (a coordinator probing a worker), not an error.
func sliceRange(r *http.Request, scenarios []campaign.Scenario) ([]campaign.Scenario, error) {
	q := r.URL.Query()
	lo, hi := 0, len(scenarios)
	var err error
	if v := q.Get("lo"); v != "" {
		if lo, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("bad range: lo %q is not an integer", v)
		}
	}
	if v := q.Get("hi"); v != "" {
		if hi, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("bad range: hi %q is not an integer", v)
		}
	}
	if lo < 0 || hi < lo || hi > len(scenarios) {
		return nil, fmt.Errorf("bad range [%d, %d): need 0 <= lo <= hi <= %d (the matrix expands to %d scenarios)",
			lo, hi, len(scenarios), len(scenarios))
	}
	return scenarios[lo:hi], nil
}

// deadlineWriter wraps a streaming response (/v1/campaign, /v1/events) so
// every write (one record or event) carries a fresh write deadline and an
// immediate flush: records reach a reading client as they complete, and a
// client that stops reading turns into a write error within writeTimeout
// instead of blocking the handler — and, through the full delivery channel,
// the shared worker pool — forever.  /v1/run answers one small record and
// goes through writeRecord instead: a flush there would only cost a second
// write for the chunked framing's terminator.
func deadlineWriter(w http.ResponseWriter) io.Writer {
	return &flushWriter{w: w, rc: http.NewResponseController(w)}
}

type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (f *flushWriter) Write(p []byte) (int, error) {
	// Not every ResponseWriter supports deadlines (httptest's recorder does
	// not); degrade to an unbounded write there rather than failing.
	f.rc.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := f.w.Write(p)
	if err == nil {
		f.rc.Flush()
	}
	// Clear the deadline: it is set on the underlying connection, and a
	// later response on the same keep-alive connection (e.g. a /metrics
	// poll written without this wrapper) must not inherit a stale one.
	f.rc.SetWriteDeadline(time.Time{})
	return n, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// Metrics is the JSON shape of GET /metrics.
type Metrics struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Workers          int     `json:"workers"`
	RunRequests      uint64  `json:"run_requests"`
	CampaignRequests uint64  `json:"campaign_requests"`
	BadRequests      uint64  `json:"bad_requests"`
	// Throttled counts requests shed by admission control (429 + Retry-After
	// while the pool's pending count was at Options.MaxPending).  Always 0
	// when admission control is disabled.
	Throttled uint64 `json:"throttled"`
	// Pending is the instantaneous count of scenarios queued or running on
	// the pool — the value admission control compares against MaxPending.
	Pending int64 `json:"pending"`
	// Records counts scenarios executed (or served from the cache) across
	// all endpoints.  Failed is the subset that genuinely failed (protocol
	// error, verification failure, panic); Cancelled is the subset aborted
	// because the requesting client disconnected or timed out — routine
	// serving churn kept out of the failure rate.
	Records          uint64  `json:"records"`
	Failed           uint64  `json:"failed"`
	Cancelled        uint64  `json:"cancelled"`
	RecordsPerSecond float64 `json:"records_per_second"`
	// Engine exposes the round runtime's process-wide execution counters:
	// rounds executed, leap batches (crossings) executed and the mean
	// rounds per crossing — the live measure of how much leap execution is
	// collapsing crossings for the scenarios this daemon serves.
	Engine engine.Counters `json:"engine"`
	// Cache is present only when the daemon runs with the memo cache.
	Cache *memo.Stats `json:"cache,omitempty"`
	// Store is present only when the daemon runs with a persistent store:
	// segment/index shape and service counters of the disk tier.
	Store *store.Stats `json:"store,omitempty"`
	// Events is the fan-out accounting of the structured-event bus backing
	// GET /v1/events: current subscribers, events published, and events
	// dropped against stalled subscribers (the drop-and-count backpressure
	// contract made visible).
	Events obs.BusStats `json:"events"`
}

// Snapshot returns the current metrics.
//
// Consistency semantics: the counters are independent atomics updated while
// requests are in flight, so a snapshot is not a linearizable cut of the
// server's state — there is no global lock to take, by design.  What the
// snapshot does guarantee is single-pass consistency: every counter is
// captured exactly once, in an order that preserves the subset invariants
// under concurrent progress (a worker adds to records before failed or
// cancelled, so failed and cancelled are loaded first and
// Failed + Cancelled <= Records always holds), and every derived value
// (RecordsPerSecond, the engine's mean rounds per crossing, cache ratios a
// client computes) is a function of the captured values, never a second
// racing read.
func (s *Server) Snapshot() Metrics {
	uptime := time.Since(s.start).Seconds()
	m := Metrics{
		UptimeSeconds:    uptime,
		Workers:          s.opts.Workers,
		RunRequests:      s.runRequests.Load(),
		CampaignRequests: s.campaignRequests.Load(),
		BadRequests:      s.badRequests.Load(),
		Throttled:        s.throttled.Load(),
		Pending:          s.pending.Load(),
		// failed/cancelled before records: see the invariant above.
		Failed:    s.failed.Load(),
		Cancelled: s.cancelled.Load(),
		Records:   s.records.Load(),
		Engine:    engine.CounterSnapshot(),
		Events:    obs.Default.Stats(),
	}
	if uptime > 0 {
		m.RecordsPerSecond = float64(m.Records) / uptime
	}
	if s.opts.Cache != nil {
		st := s.opts.Cache.Stats()
		m.Cache = &st
	}
	if s.opts.Store != nil {
		st := s.opts.Store.Stats()
		m.Store = &st
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Snapshot())
}

// handleMetricsPrometheus renders the same snapshot in the Prometheus text
// exposition format, followed by every metric registered in the obs default
// registry (engine round/crossing totals, memo cache totals, bus fan-out
// accounting).  Serve-layer metrics are prefixed ringsym_serve_.
func (s *Server) handleMetricsPrometheus(w http.ResponseWriter, r *http.Request) {
	m := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg := obs.NewRegistry()
	reg.Gauge("ringsym_serve_uptime_seconds", "Seconds since the worker pool started.", func() float64 { return m.UptimeSeconds })
	reg.Gauge("ringsym_serve_workers", "Size of the shared scenario worker pool.", func() float64 { return float64(m.Workers) })
	reg.CounterFunc("ringsym_serve_run_requests_total", "Accepted POST /v1/run requests.", func() float64 { return float64(m.RunRequests) })
	reg.CounterFunc("ringsym_serve_campaign_requests_total", "Accepted POST /v1/campaign requests.", func() float64 { return float64(m.CampaignRequests) })
	reg.CounterFunc("ringsym_serve_bad_requests_total", "Rejected (4xx) requests.", func() float64 { return float64(m.BadRequests) })
	reg.CounterFunc("ringsym_serve_throttled_total", "Requests shed by admission control (429).", func() float64 { return float64(m.Throttled) })
	reg.Gauge("ringsym_serve_pending", "Scenarios queued or running on the pool.", func() float64 { return float64(m.Pending) })
	reg.CounterFunc("ringsym_serve_records_total", "Scenarios executed or served from the cache.", func() float64 { return float64(m.Records) })
	reg.CounterFunc("ringsym_serve_failed_total", "Scenarios that genuinely failed.", func() float64 { return float64(m.Failed) })
	reg.CounterFunc("ringsym_serve_cancelled_total", "Scenarios aborted by client disconnects.", func() float64 { return float64(m.Cancelled) })
	if m.Cache != nil {
		reg.Gauge("ringsym_memo_entries", "Cached outcomes resident in this daemon's memo cache.", func() float64 { return float64(m.Cache.Entries) })
	}
	if m.Store != nil {
		reg.Gauge("ringsym_store_segments", "Segment files in this daemon's persistent store.", func() float64 { return float64(m.Store.Segments) })
		reg.Gauge("ringsym_store_index_entries", "Keys resident in this daemon's persistent store.", func() float64 { return float64(m.Store.IndexEntries) })
		reg.Gauge("ringsym_store_total_bytes", "On-disk bytes of this daemon's persistent store (the quantity -store-max caps).", func() float64 { return float64(m.Store.TotalBytes) })
	}
	if err := reg.WritePrometheus(w); err != nil {
		return
	}
	obs.Metrics.WritePrometheus(w)
}

// handleEvents streams the daemon's structured events as NDJSON until the
// client disconnects.  Filters: ?types=scenario,cache.hit (comma-separated
// types or dotted prefixes) and ?level=info (minimum level).  The
// subscription's queue is bounded (eventBuffer): a subscriber that
// reads slower than the daemon emits loses events — visible in the metrics
// snapshot's drop counter — and a subscriber that stops reading entirely is
// disconnected by the per-write deadline.  Workers never wait on either.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sopts := obs.SubOptions{Buffer: eventBuffer}
	if tp := r.URL.Query().Get("types"); tp != "" {
		for _, t := range strings.Split(tp, ",") {
			if t = strings.TrimSpace(t); t != "" {
				sopts.Types = append(sopts.Types, t)
			}
		}
	}
	if lv := r.URL.Query().Get("level"); lv != "" {
		minLvl, err := obs.ParseLevel(lv)
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
		sopts.MinLevel = minLvl
	}
	sub := obs.Default.Subscribe(sopts)
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Flush the header so a filtering client sees the stream is live before
	// the first matching event arrives.
	http.NewResponseController(w).Flush()

	enc := json.NewEncoder(deadlineWriter(w))
	ctx := r.Context()
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			return // client gone
		}
		if err := enc.Encode(ev); err != nil {
			return // write failed or deadline hit: drop the subscriber
		}
	}
}
