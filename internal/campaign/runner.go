package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/engine"
	"ringsym/internal/memo"
	"ringsym/internal/netgen"
	"ringsym/internal/obs"
	"ringsym/internal/ring"
	"ringsym/internal/task"
)

// Status classifies how a scenario run ended.
type Status string

// Record statuses.
const (
	// StatusOK: the protocol ran to completion and verified against the
	// simulator's ground truth.
	StatusOK Status = "ok"
	// StatusFailed: the protocol errored, verification failed, or the worker
	// recovered a panic; Error holds the cause.
	StatusFailed Status = "failed"
	// StatusUnsolvable: the problem is impossible in the setting (Lemma 5);
	// the scenario is recorded but nothing ran.
	StatusUnsolvable Status = "unsolvable"
)

// Record is the outcome of one scenario.  Everything exported to JSONL is a
// pure function of the scenario, so exports are byte-stable; the wall-clock
// time is deliberately excluded from serialisation and only feeds the
// in-memory aggregation.
type Record struct {
	Scenario
	Status Status `json:"status"`
	// Error is the failure cause when Status is "failed".
	Error string `json:"error,omitempty"`
	// Verified reports that the outcome was checked against the simulator's
	// ground truth (exactly one leader; correct position maps).
	Verified bool `json:"verified"`
	// Rounds is the total round cost of the task.
	Rounds int `json:"rounds"`
	// Per-stage round splits (coordination stages for coordinate, the
	// coordination/discovery split for discover), from agent 0.
	RoundsNontrivial   int `json:"rounds_nontrivial,omitempty"`
	RoundsAgreement    int `json:"rounds_agreement,omitempty"`
	RoundsLeader       int `json:"rounds_leader,omitempty"`
	RoundsCoordination int `json:"rounds_coordination,omitempty"`
	RoundsDiscovery    int `json:"rounds_discovery,omitempty"`
	// LeaderID is the identifier of the elected leader.
	LeaderID int `json:"leader_id,omitempty"`
	// Bound and BoundStr give the paper's bound for the task's total cost.
	Bound    float64 `json:"bound"`
	BoundStr string  `json:"bound_str"`
	// Cache reports how the memo cache served this record ("miss", "hit" or
	// "dedup"); empty — and absent from the JSON — when the cache is
	// disabled.  Which duplicate of an orbit is the miss and whether a
	// duplicate arrives as a hit or an in-flight dedup depend on worker
	// scheduling; the per-orbit totals (one miss, the rest hits+dedups) are
	// deterministic.
	Cache string `json:"cache,omitempty"`
	// Extra is always nil; kept only because bench/replay.go reads it; goes
	// with the next change to bench/.
	Extra map[string]json.RawMessage `json:"extra,omitempty"`
	// Wall is the measured wall-clock cost of the scenario.  Excluded from
	// JSON so that exports stay deterministic.
	Wall time.Duration `json:"-"`
}

// Options configures a campaign run.
type Options struct {
	// Workers is the worker-pool size; defaults to GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoises outcomes under their canonical symmetry
	// key (see internal/canon): symmetric duplicates in the sweep are
	// answered from the cache and annotated in Record.Cache.  When nil,
	// every scenario executes from scratch and records carry no cache
	// annotation, byte-identical to a cache-less build.
	Cache *Cache
}

// testHookScenario, when set, runs at the start of Slot.Run's lookup
// stage, inside the pipeline's recover; tests use it to inject panics.
var testHookScenario func(Scenario)

// Run executes the scenarios on a pool of workers and writes every record's
// JSON line to w in scenario-index order, through an OrderedWriter, calling
// onRecord (when non-nil) once per written record in the same order, never
// concurrently: the contract of fleet.Options.Records and OnRecord.  A
// panic inside one scenario is isolated: it becomes a failed record and the
// sweep continues.  A write error stops the workers and is returned.  When
// ctx is cancelled, Run flushes the records that finished and returns
// ctx.Err().
func Run(ctx context.Context, scenarios []Scenario, opts Options, w io.Writer, onRecord func(Record)) error {
	ow := NewOrderedWriter(w, scenarios)
	ow.onRecord = onRecord
	var mu sync.Mutex
	var werr error
	sweep(ctx, scenarios, opts, func(_ int, rec Record) bool {
		mu.Lock()
		defer mu.Unlock()
		// After a cancellation a record may be a scenario the cancellation
		// cut short: it is not written.
		if werr == nil && ctx.Err() == nil {
			werr = ow.Add(rec)
		}
		return werr == nil
	})
	if werr == nil {
		werr = ow.Flush()
	}
	if werr != nil {
		return werr
	}
	return ctx.Err()
}

// sweep runs the scenarios on a pool of workers, calling emit concurrently
// with each record and its position in the feed (the DecorrelateOrbits order
// when cached, so not the scenario Index), and returns once every worker has
// stopped.  Workers claim one scenario at a time from a shared cursor with no
// handoff to a feeder or collector goroutine: a cached duplicate costs
// microseconds, so a handoff would leave CPUs idle.  A worker stops claiming
// once ctx is cancelled or emit returns false.
func sweep(ctx context.Context, scenarios []Scenario, opts Options, emit func(pos int, rec Record) bool) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(scenarios))
	if opts.Cache != nil {
		scenarios = DecorrelateOrbits(scenarios)
	}
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.CampaignStart, Level: obs.LevelInfo, Total: len(scenarios)})
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	var done atomic.Uint64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker owns one network slot for its whole shift and
			// runs every scenario on it, so consecutive scenarios reset one
			// network instead of building one each.
			slot := &Slot{}
			for ctx.Err() == nil {
				pos := int(next.Add(1) - 1)
				if pos >= len(scenarios) {
					return
				}
				// Under ctx, cancellation interrupts an in-flight protocol
				// within one round and records it as failed (context.Canceled).
				rec := slot.Run(ctx, scenarios[pos], opts)
				if n := done.Add(1); obs.On() {
					EmitCheckpoint(int(n), len(scenarios))
				}
				if !emit(pos, rec) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.CampaignFinish, Level: obs.LevelInfo, Done: int(done.Load()), Total: len(scenarios)})
	}
}

// checkpointEvery is the campaign.checkpoint cadence in completed scenarios:
// frequent enough that a live view or durability layer tracking checkpoints
// lags a sweep by well under a second, rare enough to be free next to the
// per-scenario events.
const checkpointEvery = 1000

// EmitCheckpoint publishes campaign.checkpoint when done, the number of the
// sweep's scenarios completed so far, is a multiple of the checkpoint
// cadence.  The local runner and the fleet merger both call it, so a sweep
// checkpoints at the same counts wherever it ran.  Callers guard with
// obs.On(), as for EmitScenarioDone: the helper is too large to inline.
func EmitCheckpoint(done, total int) {
	if obs.On() && done%checkpointEvery == 0 {
		obs.Emit(obs.Event{Type: obs.CampaignCheckpoint, Level: obs.LevelInfo, Done: done, Total: total})
	}
}

// EmitScenarioDone publishes the completion event for one record:
// scenario.error for failures (with the cause), scenario.finish otherwise.
// A zero Wall, as on records decoded from a worker's stream, leaves wall_us
// out of the event.  Callers guard with obs.On() to avoid the call itself;
// the early return keeps the helper correct on its own, so no future call
// site can build the Event — including its string fields — on a quiet bus.
func EmitScenarioDone(rec Record) {
	if !obs.On() {
		return
	}
	ev := obs.Event{
		Type: obs.ScenarioFinish, Level: obs.LevelInfo,
		Task: string(rec.Task), Model: rec.Model, N: rec.N, Seed: rec.Seed, Index: rec.Index,
		Status: string(rec.Status), Cache: rec.Cache,
		Rounds: int64(rec.Rounds), WallMicros: rec.Wall.Microseconds(),
	}
	if rec.Status == StatusFailed {
		ev.Type, ev.Level, ev.Err = obs.ScenarioError, obs.LevelError, rec.Error
	}
	obs.Emit(ev)
}

// decorrelateWindow is the reorder horizon of DecorrelateOrbits: scenarios
// move only within a window of this many feed slots.  Large enough to hold
// many distinct orbits per window (framings per orbit are typically single
// digits), small enough that index-ordered consumers (OrderedWriter) buffer
// at most one window of out-of-order records instead of the whole sweep.
const decorrelateWindow = 256

// DecorrelateOrbits reorders a cached sweep's feed so symmetric framings of
// one orbit are spread apart instead of adjacent: Expand nests phase and
// reflection innermost, so a block of consecutive scenarios is one orbit,
// and feeding it to concurrent workers would serialise the pool on the
// singleflight lock (one worker computes the representative while the rest
// join the in-flight call and idle).  Within each window, untransformed
// framings go first: distinct orbits compute in parallel and the transformed
// framings become plain hits.  The reorder is deterministic, bounded to
// decorrelateWindow feed slots, and records keep their original Index, so
// exports, aggregation and sharding semantics are untouched — only the
// completion order (already unspecified) changes.
func DecorrelateOrbits(scenarios []Scenario) []Scenario {
	sorted := append([]Scenario(nil), scenarios...)
	for lo := 0; lo < len(sorted); lo += decorrelateWindow {
		hi := lo + decorrelateWindow
		if hi > len(sorted) {
			hi = len(sorted)
		}
		chunk := sorted[lo:hi]
		sort.SliceStable(chunk, func(i, j int) bool {
			if chunk[i].Phase != chunk[j].Phase {
				return chunk[i].Phase < chunk[j].Phase
			}
			return !chunk[i].Reflect && chunk[j].Reflect
		})
	}
	return sorted
}

// RunAll runs the scenarios and returns all records sorted by scenario
// index.  It returns the context error when the run was cut short.
func RunAll(ctx context.Context, scenarios []Scenario, opts Options) ([]Record, error) {
	// Indexed by feed position, not scenario Index: a shard's indices do not
	// start at 0.
	recs := make([]Record, len(scenarios))
	sweep(ctx, scenarios, opts, func(pos int, rec Record) bool {
		recs[pos] = rec
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
	return recs, nil
}

// RunScenarioContext executes a single scenario: it generates the network
// with netgen and drives it through the public ringsym facade, which verifies
// outcomes against the simulator's ground truth.  When ctx is cancelled the
// in-flight protocol is aborted within one round and the scenario is recorded
// as failed with an error wrapping context.Canceled (or the context's cause),
// rather than running until the engine's round bound.  Panics anywhere in
// generation or protocol execution are recovered into a failed record.
func RunScenarioContext(ctx context.Context, sc Scenario, opts Options) Record {
	return (*Slot)(nil).Run(ctx, sc, opts)
}

// Slot is a network-reuse slot: one facade network, reset in place for every
// scenario run on the slot, so the ring state, agent objects and their grown
// scratch buffers survive from one scenario to the next instead of being
// rebuilt per scenario.  A slot is single-threaded: whoever holds it (a sweep
// worker for its whole shift, a serve worker for one job) is the only caller
// of its Run.  The zero value is an empty slot, ready for use.
type Slot struct{ nw *ringsym.Network }

// Run is RunScenarioContext on the slot: it prepares the scenario and runs
// the prepared scenario on the slot (see RunPrepared).
func (slot *Slot) Run(ctx context.Context, sc Scenario, opts Options) Record {
	return slot.RunPrepared(ctx, Prepare(sc, opts))
}

// RunPrepared finishes a prepared scenario by running its task: an uncached
// scenario runs on the slot's network (see acquireNetwork), and a nil slot
// builds a fresh network.  A cached computation runs through the cache's
// singleflight, on this goroutine when it leads, and always on a fresh
// network: the benchmark's traced replay times cached computes on fresh
// networks, and they move onto the slot together with it (ROADMAP item 1).
// Record.Wall counts the preparation too, wherever it ran.
func (slot *Slot) RunPrepared(ctx context.Context, p Prepared) Record {
	//ringvet:allow determinism wall time feeds Record.Wall, which the export layer strips (see runner_test "wall time leaked")
	start := time.Now()
	sc := p.rec.Scenario
	if obs.On() {
		obs.Emit(obs.Event{
			Type: obs.ScenarioStart, Level: obs.LevelDebug,
			Task: string(sc.Task), Model: sc.Model, N: sc.N, Seed: sc.Seed, Index: sc.Index,
		})
	}
	rec := p.finish(func() (task.Outcome, memo.Kind, error) {
		if testHookScenario != nil {
			testHookScenario(sc)
		}
		if p.cache == nil {
			out, err := runSpec(ctx, p.spec, p.cfg, sc, slot)
			return out, memo.Miss, err
		}
		return p.cache.c.Do(ctx, p.key, func(cctx context.Context) (task.Outcome, error) {
			return runSpec(cctx, p.spec, p.cfg, sc, nil)
		})
	})
	//ringvet:allow determinism wall time feeds Record.Wall, which the export layer strips (see runner_test "wall time leaked")
	rec.Wall = p.wall + time.Since(start)
	if obs.On() {
		EmitScenarioDone(rec)
	}
	return rec
}

// ProbeCache answers a scenario purely from the memo cache: it prepares the
// scenario and probes it (see Prepared.Probe).  With a nil cache it reports
// false at once.
func ProbeCache(sc Scenario, opts Options) (Record, bool) {
	if opts.Cache == nil {
		return Record{}, false
	}
	return Prepare(sc, opts).Probe()
}

// Probe finishes a prepared scenario from memory alone: it returns the
// record (annotated as a hit) when the outcome of the scenario's canonical
// representative is already in the memo cache, and ok=false otherwise —
// when the scenario was prepared without a cache, is unsolvable or invalid,
// the outcome simply is not there yet, or a stage failed (a malformed
// tier-promoted outcome that panics in MapOutcome included).  Nothing
// executes and no singleflight computation is joined, so a serving layer
// can answer hits on the request goroutine without occupying a pool worker,
// and hand the same prepared value to RunPrepared on a miss: the miss pays
// for its preparation once.
func (p Prepared) Probe() (Record, bool) {
	if p.cache == nil {
		return Record{}, false
	}
	rec := p.finish(func() (task.Outcome, memo.Kind, error) {
		out, ok := p.cache.c.Get(p.key)
		if !ok {
			return out, memo.Miss, errNotCached
		}
		return out, memo.Hit, nil
	})
	if rec.Status != StatusOK {
		return Record{}, false
	}
	// A probe hit never reaches RunPrepared, so its completion event is
	// emitted here: cache-served scenarios stay visible on the event spine.
	if obs.On() {
		EmitScenarioDone(rec)
	}
	return rec, true
}

// errNotCached is a probe's lookup miss; Probe turns it into ok=false.
var errNotCached = errors.New("campaign: outcome not cached")

// Prepared is a scenario taken through the first half of the pipeline
// every entry point shares: resolve (model, spec, bound, solvability) →
// generate → canonicalize → key.  Its finish (Probe, or RunPrepared) runs
// the second half: lookup → map → fill.  The stages and their order live in
// Prepare and finish alone, so the key a probe reads cannot drift from the
// key a run stores under, and the two finishes differ only in the lookup
// stage.  With a cache, cfg is the canonical representative of the
// scenario's orbit and key its cache key; without one, cfg is the
// scenario's own framing and key is empty.  In either half every failure, a
// recovered panic included, leaves through one exit as a failed record that
// keeps the bound once it is resolved.  A Prepared is a value: it may be
// copied and handed to another goroutine, and its finish reads it without
// writing it.  The zero value is not a scenario; build one with Prepare.
type Prepared struct {
	// rec is the record so far: the scenario and its bound, and, when
	// preparation already decided the record (unsolvable or failed), its
	// final status.
	rec   Record
	spec  task.Spec
	cfg   engine.Config
	m     canon.Map
	key   string
	cache *Cache
	wall  time.Duration // the preparation's own wall time
}

// Prepare runs the first half of a scenario's pipeline under opts.Cache
// (see Prepared).
func Prepare(sc Scenario, opts Options) (p Prepared) {
	//ringvet:allow determinism wall time feeds Record.Wall, which the export layer strips (see runner_test "wall time leaked")
	start := time.Now()
	p.rec = Record{Scenario: sc}
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			p.rec = p.rec.failed(err)
		}
		//ringvet:allow determinism wall time feeds Record.Wall, which the export layer strips (see runner_test "wall time leaked")
		p.wall = time.Since(start)
	}()
	model, err := ParseModel(sc.Model)
	if err != nil {
		return p
	}
	if p.spec, err = task.Lookup(string(sc.Task)); err != nil {
		return p
	}
	oddN := sc.N%2 == 1
	p.rec.Bound, p.rec.BoundStr = p.spec.Bound(model, oddN, sc.CommonSense, sc.N, sc.IDBound)
	if !p.spec.Solvable(model, oddN) {
		p.rec.Status = StatusUnsolvable
		return p
	}
	if p.cfg, err = generateConfig(sc, model); err != nil {
		return p
	}
	// Cached path: look up the canonical representative of the
	// configuration's orbit, so every orbit member shares one stored
	// outcome; finish translates it back into this scenario's frame through
	// the task's MapOutcome.  Uncached, the outcome is already in sc's
	// frame.
	if opts.Cache != nil {
		if p.cfg, p.m, err = canon.Canonicalize(p.cfg); err != nil {
			return p
		}
		p.key = cacheKey(canon.Fingerprint(p.cfg), sc)
		p.cache = opts.Cache
	}
	return p
}

// finish runs the second half of the pipeline: lookup returns the outcome
// of p.cfg and how the memo cache served it, and finish maps it into the
// scenario's frame and fills the record.  A record preparation already
// decided is returned as it is.
func (p *Prepared) finish(lookup func() (task.Outcome, memo.Kind, error)) (rec Record) {
	if p.rec.Status != "" {
		return p.rec
	}
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			rec = p.rec.failed(err)
		}
	}()
	out, kind, err := lookup()
	if err != nil {
		return rec
	}
	rec = p.rec
	if p.cache != nil {
		out = p.spec.MapOutcome(out, p.m)
		rec.Cache = kind.String()
	}
	rec.fill(out)
	return rec
}

// failed is the failed record of rec's scenario: the cause, and the bound
// once it was resolved.
func (rec Record) failed(err error) Record {
	return Record{Scenario: rec.Scenario, Status: StatusFailed, Error: err.Error(), Bound: rec.Bound, BoundStr: rec.BoundStr}
}

// generateConfig is the pipeline's generate stage (see Prepared): it
// builds the scenario's (possibly phase-rotated/reflected) network
// configuration.  The circumference and the round bound are netgen's and the
// engine's defaults: no scenario field selects them, so a record stays a
// function of its scenario alone.
func generateConfig(sc Scenario, model ring.Model) (engine.Config, error) {
	gen, err := netgen.Generate(netgen.Options{
		N:                   sc.N,
		IDBound:             sc.IDBound,
		Model:               model,
		MixedChirality:      sc.MixedChirality,
		ForceSplitChirality: sc.MixedChirality,
		Seed:                sc.Seed,
	})
	if err != nil {
		return engine.Config{}, err
	}
	if sc.Phase != 0 || sc.Reflect {
		return canon.Transform(gen, sc.Phase, sc.Reflect)
	}
	return gen, nil
}

// acquireNetwork returns a network for cfg: the slot's network, reset in
// place, when the slot holds one; a fresh one otherwise (and after a failed
// reset, whose contract leaves the network undefined), which a non-nil slot
// keeps for the next scenario.
func acquireNetwork(s *Slot, cfg ringsym.Config) (*ringsym.Network, error) {
	if s != nil && s.nw != nil {
		if err := s.nw.Reset(cfg); err == nil {
			return s.nw, nil
		}
		s.nw = nil
	}
	nw, err := ringsym.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	if s != nil {
		s.nw = nw
	}
	return nw, nil
}

// runSpec executes the scenario's task on the given configuration through
// the task's spec: the network is built behind the public facade (whose
// pipelines verify protocol outcomes against the simulator's ground truth),
// the spec runs, and the finished outcome is re-checked with the spec's own
// Verify before it may enter the cache or a record.  The network comes from
// slot (see acquireNetwork).
func runSpec(ctx context.Context, spec task.Spec, gen engine.Config, sc Scenario, slot *Slot) (task.Outcome, error) {
	nw, err := acquireNetwork(slot, ringsym.Config{
		Model:         gen.Model,
		Circumference: gen.Circ,
		Positions:     gen.Positions,
		IDs:           gen.IDs,
		IDBound:       gen.IDBound,
		Chirality:     gen.Chirality,
		MaxRounds:     gen.MaxRounds,
	})
	if err != nil {
		return task.Outcome{}, err
	}
	p := task.Params{
		N:              sc.N,
		IDBound:        gen.IDBound,
		MixedChirality: sc.MixedChirality,
		CommonSense:    sc.CommonSense,
		Seed:           sc.Seed,
	}
	out, err := spec.Run(ctx, nw, p)
	if err != nil {
		return task.Outcome{}, err
	}
	if err := spec.Verify(nw, p, out); err != nil {
		return task.Outcome{}, fmt.Errorf("%w: %v", ringsym.ErrVerification, err)
	}
	return out, nil
}
