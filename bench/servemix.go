package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/engine"
	"ringsym/internal/memo"
	"ringsym/internal/serve"
	"ringsym/internal/task"
)

// The serve-mixed request stream: a closed loop of clients against one
// in-process ringd (cache on, default capacity, one pool worker per CPU).
const (
	clients    = 2  // closed-loop clients, one connection each
	freshEvery = 6  // one request in freshEvery, on average, is a fresh orbit
	window     = 64 // the other requests reframe one of the last window orbits
	checkEvery = 64 // every checkEvery-th response is recomputed uncached
)

var (
	streamTasks  = []campaign.Task{campaign.TaskCoordinate, campaign.TaskDiscover}
	streamModels = []string{"basic", "lazy", "perceptive"}
	streamSizes  = []int{8, 9, 12, 13, 16, 17}
)

// stream generates the seeded request sequence.  Fresh orbits get seeds no
// earlier request used, so each is a cache miss; reframings (a random phase
// and reflection) of a recent orbit are served from the cache.
type stream struct {
	rng    *rand.Rand
	base   int64
	orbits int64
	recent []campaign.Scenario
}

func newStream(seed int64) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), base: seed * 1_000_000}
}

// orbit draws a fresh solvable orbit.
func (s *stream) orbit() campaign.Scenario {
	for {
		t := streamTasks[s.rng.Intn(len(streamTasks))]
		m := streamModels[s.rng.Intn(len(streamModels))]
		n := streamSizes[s.rng.Intn(len(streamSizes))]
		mixed := s.rng.Intn(2) == 0
		spec, err := task.Lookup(string(t))
		if err != nil {
			panic(err) // the built-in tasks are always registered
		}
		model, err := campaign.ParseModel(m)
		if err != nil {
			panic(err)
		}
		if !spec.Solvable(model, n%2 == 1) {
			continue
		}
		s.orbits++
		sc := campaign.Scenario{Task: t, Model: m, N: n, IDBound: 4 * n, MixedChirality: mixed, Seed: s.base + s.orbits}
		if len(s.recent) < window {
			s.recent = append(s.recent, sc)
		} else {
			s.recent[(s.orbits-1)%window] = sc
		}
		return sc
	}
}

// next returns the next request and whether it is a fresh orbit.
func (s *stream) next(forceFresh bool) (campaign.Scenario, bool) {
	fresh := forceFresh || s.rng.Intn(freshEvery) == 0
	var sc campaign.Scenario
	if fresh {
		sc = s.orbit()
	} else {
		sc = s.recent[s.rng.Intn(len(s.recent))]
	}
	sc.Phase = s.rng.Intn(sc.N)
	sc.Reflect = s.rng.Intn(2) == 1
	return sc, fresh
}

// serveMixed is the serving workload.
type serveMixed struct {
	e      *env
	cache  *campaign.Cache
	srv    *serve.Server
	ts     *httptest.Server
	timer  *timed
	client *http.Client
	base   memo.Stats

	mu     sync.Mutex // guards gen and seq
	gen    *stream
	seq    int
	primed []campaign.Scenario

	replayCache *memo.Cache[task.Outcome] // the traced replay's own cache, across slices
	replayed    int                       // primed requests already replayed
}

func newServeMixed(ctx context.Context, e *env) (instance, error) {
	m := &serveMixed{
		e:      e,
		cache:  campaign.NewCache(0),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
		gen:    newStream(e.cfg.seed),
	}
	m.srv = serve.New(serve.Options{Workers: poolWorkers, Cache: m.cache})
	m.timer = &timed{h: m.srv.Handler(), span: "serve.handler"}
	m.ts = httptest.NewServer(m.timer)
	// Warm-up: the first window of fresh orbits, so reframings have
	// something to reframe from the first measured request on.
	for i := 0; i < window; i++ {
		sc, _ := m.draw(true)
		r := m.do(ctx, sc, false)
		if r.err != "" {
			m.close()
			return nil, fmt.Errorf("priming request %d: %s", i, r.err)
		}
		m.primed = append(m.primed, sc)
	}
	m.base = m.cache.Stats()
	return m, nil
}

func (m *serveMixed) draw(forceFresh bool) (campaign.Scenario, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sc, fresh := m.gen.next(forceFresh)
	m.seq++
	sc.Index = m.seq
	return sc, fresh
}

// result is one request as the client saw it.
type result struct {
	sc      campaign.Scenario
	rec     campaign.Record
	latency time.Duration
	err     string // a failed check; empty when the response is correct
}

// do sends one /v1/run request and checks the response.
func (m *serveMixed) do(ctx context.Context, sc campaign.Scenario, traced bool) result {
	r := result{sc: sc}
	body, err := json.Marshal(sc)
	if err != nil {
		r.err = err.Error()
		return r
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		r.err = err.Error()
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(seqHeader, strconv.Itoa(sc.Index))
	}
	start := time.Now()
	resp, err := m.client.Do(req)
	if err != nil {
		r.err = err.Error()
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(start)
	switch {
	case err != nil:
		r.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	case json.Unmarshal(b, &r.rec) != nil:
		r.err = "undecodable response"
	case r.rec.Status != campaign.StatusOK || !r.rec.Verified || r.rec.Index != sc.Index:
		r.err = fmt.Sprintf("response %s: status %q verified %t index %d", sc.Key(), r.rec.Status, r.rec.Verified, r.rec.Index)
	}
	return r
}

// load runs the closed loop, one request per client and then more until the
// deadline, and returns every request in completion order per client, plus
// the slice's wall time.
func (m *serveMixed) load(ctx context.Context, deadline time.Time, traced bool, probeUS *[]float64) ([]result, time.Duration) {
	var wg sync.WaitGroup
	per := make([][]result, clients)
	probes := make([][]float64, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				if ctx.Err() != nil {
					return
				}
				sc, fresh := m.draw(false)
				if traced && fresh {
					// ProbeCache's cost on a miss: the preparation a
					// fresh orbit pays before it queues for a worker.
					t := time.Now()
					if _, hit := campaign.ProbeCache(sc, campaign.Options{Cache: m.cache}); !hit {
						probes[c] = append(probes[c], float64(time.Since(t).Nanoseconds())/1e3)
					}
				}
				per[c] = append(per[c], m.do(ctx, sc, traced))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []result
	for c := range per {
		out = append(out, per[c]...)
		if probeUS != nil {
			*probeUS = append(*probeUS, probes[c]...)
		}
	}
	return out, wall
}

// verify recomputes every checkEvery-th response uncached; the served
// record must match it apart from the cache annotation.
func (m *serveMixed) verify(ctx context.Context, rs []result, acc *checks) {
	for _, r := range rs {
		if r.err != "" {
			acc.fail(1, "%s", r.err)
			continue
		}
		if r.sc.Index%checkEvery != 0 {
			continue
		}
		ref := campaign.RunScenarioContext(ctx, r.sc, campaign.Options{})
		if !sameRecord(ref, r.rec, true) {
			acc.fail(1, "response for %s differs from an uncached run", r.sc.Key())
		}
	}
}

func (m *serveMixed) measure(ctx context.Context, deadline time.Time, acc *e2eAcc) (int, time.Duration, error) {
	rs, wall := m.load(ctx, deadline, false, nil)
	for _, r := range rs {
		acc.latencyUS = append(acc.latencyUS, float64(r.latency.Nanoseconds())/1e3)
	}
	acc.attempted += int64(len(rs))
	m.verify(ctx, rs, &acc.checks)
	return len(rs), wall, ctx.Err()
}

// trace splits each slice into an untraced half (the program's own numbers)
// and a traced half (handler spans, probe timing), then replays every
// request of the slice in order through the serve path's stages.
func (m *serveMixed) trace(ctx context.Context, deadline time.Time, acc *traceAcc) error {
	half := time.Now().Add(time.Until(deadline) / 2)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, s0 := engine.CounterSnapshot(), m.cache.Stats()
	untraced, wallU := m.load(ctx, half, false, nil)
	c1, s1 := engine.CounterSnapshot(), m.cache.Stats()
	runtime.ReadMemStats(&m1)
	acc.rounds += c1.Rounds - c0.Rounds
	acc.crossings += c1.LeapBatches - c0.LeapBatches
	acc.mallocs += m1.Mallocs - m0.Mallocs
	acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	served := (s1.Hits - s0.Hits) + (s1.Dedups - s0.Dedups) + (s1.DiskHits - s0.DiskHits) + (s1.PeerHits - s0.PeerHits)
	acc.memoServed += served
	acc.memoCalls += served + (s1.Misses - s0.Misses)
	acc.memoComputes += s1.Misses - s0.Misses
	acc.memoDedups += s1.Dedups - s0.Dedups
	acc.memoEvictions += s1.Evictions - s0.Evictions
	for _, r := range untraced {
		acc.programWall += r.latency
	}
	acc.programScen += len(untraced)
	acc.untracedWall += wallU
	acc.untracedOps += len(untraced)

	m.timer.acc.Store(acc)
	traced, wallT := m.load(ctx, deadline, true, &acc.probeMissUS)
	m.timer.acc.Store(nil)
	acc.tracedWall += wallT
	acc.tracedOps += len(traced)
	handler := map[string]time.Duration{}
	for _, h := range m.timer.drain() {
		handler[h.seq] = h.d
	}
	for _, r := range traced {
		if r.err != "" {
			continue
		}
		us := float64(r.latency.Nanoseconds()) / 1e3
		acc.requests++
		if r.rec.Cache == memo.Hit.String() {
			acc.hits++
			acc.hitUS = append(acc.hitUS, us)
		} else {
			acc.missUS = append(acc.missUS, us)
		}
		if d, ok := handler[strconv.Itoa(r.sc.Index)]; ok {
			acc.handlerUS = append(acc.handlerUS, float64(d.Nanoseconds())/1e3)
			acc.transportUS = append(acc.transportUS, us-float64(d.Nanoseconds())/1e3)
		}
	}

	all := append(untraced, traced...)
	sort.Slice(all, func(i, j int) bool { return all[i].sc.Index < all[j].sc.Index })
	acc.attempted += int64(len(all))
	m.verify(ctx, all, &acc.checks)
	return m.replay(ctx, all, acc)
}

// replay runs the slice's requests sequentially through the serve path's
// stages (probe, then the worker path on a miss) against the replay's own
// cache, which has seen the same request stream since priming.  Concurrency
// can make the server dedup where the replay hits, so only the records,
// not their cache annotations, must match.
func (m *serveMixed) replay(ctx context.Context, rs []result, acc *traceAcc) error {
	if m.replayCache == nil {
		m.replayCache = memo.New[task.Outcome](0)
	}
	var sink bytes.Buffer
	r := &replay{tr: &acc.tr, cache: m.replayCache, probe: true, out: &sink}
	for ; m.replayed < len(m.primed); m.replayed++ {
		if _, err := r.scenario(ctx, m.primed[m.replayed], nil); err != nil {
			return err
		}
	}
	acc.tr.reset()
	bad := 0
	for _, res := range rs {
		rec, err := r.scenario(ctx, res.sc, nil)
		if err != nil {
			return fmt.Errorf("replay %s: %w", res.sc.Key(), err)
		}
		if res.err == "" && !sameRecord(rec, res.rec, true) {
			bad++
		}
		sink.Reset()
	}
	if bad > 0 {
		acc.fail(bad, "%d replayed records differ from the served ones", bad)
	}
	var program time.Duration
	for _, res := range rs {
		program += res.latency
	}
	acc.fold(program)
	return nil
}

func (m *serveMixed) counts() map[string]uint64 {
	s := m.cache.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]uint64{
		"requests":  uint64(m.seq - window),
		"orbits":    uint64(m.gen.orbits),
		"computes":  s.Misses - m.base.Misses,
		"hits":      s.Hits - m.base.Hits,
		"dedups":    s.Dedups - m.base.Dedups,
		"evictions": s.Evictions - m.base.Evictions,
	}
}

func (m *serveMixed) close() error {
	m.client.CloseIdleConnections()
	m.ts.Close()
	m.srv.Close()
	return nil
}
