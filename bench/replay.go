package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ringsym"
	"ringsym/internal/campaign"
	"ringsym/internal/canon"
	"ringsym/internal/engine"
	"ringsym/internal/memo"
	"ringsym/internal/netgen"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// replay re-executes scenarios stage by stage through the layers' public
// functions, in the order campaign.RunScenarioContext and serve's /v1/run
// handler call them, with a span around every call.  Its records must equal
// the program's, which keeps the replay honest as the runner evolves.
type replay struct {
	tr    *tracer
	cache *memo.Cache[task.Outcome] // nil: cache off
	probe bool                      // serve path: probe memory before the worker path
	nw    *ringsym.Network          // the worker's reused network (cache-off path)
	out   io.Writer                 // receives the encoded records
}

// storeTier is the replay's disk tier: the same store calls and Outcome
// JSON coding as the campaign's own tier, with a span around each.
type storeTier struct {
	tr  *tracer
	st  *store.Store
	idx int // scenario index of the lookup in flight
}

func (t *storeTier) Load(_ context.Context, key string) (task.Outcome, memo.Kind, bool) {
	t.tr.begin(stStoreGet, t.idx)
	b, ok := t.st.Get(key)
	t.tr.end()
	if !ok {
		return task.Outcome{}, memo.Miss, false
	}
	t.tr.begin(stDecode, t.idx)
	var out task.Outcome
	err := json.Unmarshal(b, &out)
	t.tr.end()
	if err != nil {
		return task.Outcome{}, memo.Miss, false
	}
	return out, memo.DiskHit, true
}

func (t *storeTier) Store(key string, out task.Outcome) {
	t.tr.begin(stStorePut, t.idx)
	if b, err := json.Marshal(out); err == nil {
		t.st.Put(key, b)
	}
	t.tr.end()
}

// scenario replays one scenario and returns its record.
func (r *replay) scenario(ctx context.Context, sc campaign.Scenario, tier *storeTier) (campaign.Record, error) {
	tr := r.tr
	tr.begin(stScenario, sc.Index)
	defer tr.end()
	rec := campaign.Record{Scenario: sc}
	model, err := campaign.ParseModel(sc.Model)
	if err != nil {
		return rec, err
	}
	spec, err := task.Lookup(string(sc.Task))
	if err != nil {
		return rec, err
	}
	oddN := sc.N%2 == 1
	rec.Bound, rec.BoundStr = spec.Bound(model, oddN, sc.CommonSense, sc.N, sc.IDBound)
	if !spec.Solvable(model, oddN) {
		rec.Status = campaign.StatusUnsolvable
		return rec, r.encode(rec)
	}
	if r.probe {
		// serve's hit path: campaign.ProbeCache prepares the scenario and
		// reads memory; a miss falls through to the worker path below,
		// which prepares it again.
		ccfg, m, err := r.prepare(sc, model)
		if err != nil {
			return rec, err
		}
		k := r.key(ccfg, sc)
		tr.begin(stMemo, sc.Index)
		out, ok := r.cache.Get(k)
		tr.end()
		if ok {
			fill(&rec, r.mapOutcome(spec, out, m, sc.Index))
			rec.Cache = memo.Hit.String()
			return rec, r.encode(rec)
		}
	}
	if r.cache == nil {
		gen, err := r.frame(sc, model)
		if err != nil {
			return rec, err
		}
		out, err := r.compute(ctx, spec, gen, sc, true)
		if err != nil {
			return rec, err
		}
		fill(&rec, out)
		return rec, r.encode(rec)
	}
	ccfg, m, err := r.prepare(sc, model)
	if err != nil {
		return rec, err
	}
	if tier != nil {
		tier.idx = sc.Index
	}
	k := r.key(ccfg, sc)
	tr.begin(stMemo, sc.Index)
	out, kind, err := r.cache.Do(ctx, k, func(cctx context.Context) (task.Outcome, error) {
		return r.compute(cctx, spec, ccfg, sc, false)
	})
	tr.end()
	if err != nil {
		return rec, err
	}
	fill(&rec, r.mapOutcome(spec, out, m, sc.Index))
	rec.Cache = kind.String()
	return rec, r.encode(rec)
}

// frame generates the scenario's configuration in its own frame.
func (r *replay) frame(sc campaign.Scenario, model ringsym.Model) (engine.Config, error) {
	tr := r.tr
	tr.begin(stGenerate, sc.Index)
	gen, err := netgen.Generate(netgen.Options{
		N: sc.N, IDBound: sc.IDBound, Model: model, Seed: sc.Seed,
		MixedChirality: sc.MixedChirality, ForceSplitChirality: sc.MixedChirality,
	})
	tr.end()
	if err != nil || (sc.Phase == 0 && !sc.Reflect) {
		return gen, err
	}
	tr.begin(stTransform, sc.Index)
	defer tr.end()
	return canon.Transform(gen, sc.Phase, sc.Reflect)
}

// prepare frames the scenario's configuration and canonicalizes it.
func (r *replay) prepare(sc campaign.Scenario, model ringsym.Model) (engine.Config, canon.Map, error) {
	gen, err := r.frame(sc, model)
	if err != nil {
		return engine.Config{}, canon.Map{}, err
	}
	tr := r.tr
	tr.begin(stCanonical, sc.Index)
	ccfg, m, err := canon.Canonicalize(gen)
	tr.end()
	return ccfg, m, err
}

// key is the campaign's cache key: the canonical fingerprint plus the
// task-level inputs (campaign.ValidCacheKey pins its shape).
func (r *replay) key(ccfg engine.Config, sc campaign.Scenario) string {
	r.tr.begin(stFingerprint, sc.Index)
	fp := canon.Fingerprint(ccfg)
	r.tr.end()
	return fmt.Sprintf("%s|task=%s|cs=%t|seed=%d", fp, sc.Task, sc.CommonSense, sc.Seed)
}

// compute builds the network and runs and verifies the task.  The uncached
// worker path resets its reused network; the cached path computes on a
// fresh one, as the runner does once the cache owns the computation.
func (r *replay) compute(ctx context.Context, spec task.Spec, gen engine.Config, sc campaign.Scenario, reuse bool) (task.Outcome, error) {
	tr := r.tr
	cfg := ringsym.Config{
		Model: gen.Model, Circumference: gen.Circ, Positions: gen.Positions, IDs: gen.IDs,
		IDBound: gen.IDBound, Chirality: gen.Chirality, MaxRounds: gen.MaxRounds,
	}
	tr.begin(stNetwork, sc.Index)
	var nw *ringsym.Network
	var err error
	if reuse && r.nw != nil && r.nw.Reset(cfg) == nil {
		nw = r.nw
	} else if nw, err = ringsym.NewNetwork(cfg); err == nil && reuse {
		r.nw = nw
	}
	tr.end()
	if err != nil {
		return task.Outcome{}, err
	}
	p := task.Params{N: sc.N, IDBound: gen.IDBound, MixedChirality: sc.MixedChirality, CommonSense: sc.CommonSense, Seed: sc.Seed}
	tr.begin(stRun, sc.Index)
	out, err := spec.Run(ctx, nw, p)
	tr.end()
	if err != nil {
		return task.Outcome{}, err
	}
	tr.begin(stVerify, sc.Index)
	err = spec.Verify(nw, p, out)
	tr.end()
	if err != nil {
		return task.Outcome{}, fmt.Errorf("%w: %v", ringsym.ErrVerification, err)
	}
	return out, nil
}

func (r *replay) mapOutcome(spec task.Spec, out task.Outcome, m canon.Map, idx int) task.Outcome {
	r.tr.begin(stMap, idx)
	defer r.tr.end()
	return spec.MapOutcome(out, m)
}

// encode writes the record as one JSONL line, as the ordered exporter does.
func (r *replay) encode(rec campaign.Record) error {
	r.tr.begin(stEncode, rec.Index)
	defer r.tr.end()
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	r.out.Write(b)
	r.out.Write([]byte{'\n'})
	return nil
}

// fill copies an outcome into a record exactly as the campaign runner does.
func fill(rec *campaign.Record, out task.Outcome) {
	rec.Rounds = out.Rounds
	rec.LeaderID = out.LeaderID
	if len(out.PerAgent) > 0 {
		sp := out.PerAgent[0]
		rec.RoundsNontrivial = sp.Nontrivial
		rec.RoundsAgreement = sp.Agreement
		rec.RoundsLeader = sp.Leader
		rec.RoundsCoordination = sp.Coordination
		rec.RoundsDiscovery = sp.Discovery
	}
	rec.Extra = out.Extra
	rec.Status = campaign.StatusOK
	rec.Verified = true
}

// sameRecord compares two records as exported, optionally ignoring the
// cache annotation.
func sameRecord(a, b campaign.Record, ignoreCache bool) bool {
	if ignoreCache {
		a.Cache, b.Cache = "", ""
	}
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// trace runs one untraced one-worker pass of the program, then replays the
// same scenarios in the runner's feed order.  With one worker the tier each
// scenario is served from is deterministic, so the replay's tier must match
// every record's cache annotation, and the replay's stage self times must
// add up to the program's wall time (the median over pass pairs, which run
// milliseconds apart, so host drift lands on both sides).
func (s *sweep) trace(ctx context.Context, deadline time.Time, acc *traceAcc) error {
	acc.checkStageSum = true
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := s.pass(ctx, replayWorkers)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		n := len(s.scenarios)
		acc.attempted += int64(n)
		s.check(p, &acc.checks)
		acc.programWall += p.wall
		acc.untracedWall += p.wall
		acc.untracedOps += n
		acc.programScen += n
		acc.rounds += p.counts["rounds"]
		acc.crossings += p.counts["crossings"]
		acc.mallocs += m1.Mallocs - m0.Mallocs
		acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		if s.cached {
			solvable := uint64(n - unsolvable(p.recs))
			acc.memoCalls += solvable
			acc.memoServed += solvable - p.counts["computes"]
			acc.memoComputes += p.counts["computes"]
			acc.memoEvictions += p.counts["evictions"]
			acc.openWall = append(acc.openWall, float64(p.openWall.Microseconds())/1e3)
			acc.closeWall = append(acc.closeWall, float64(p.closeWall.Microseconds())/1e3)
			acc.storeBytes += int64(p.counts["store_bytes"])
		}

		bad, err := s.replayPass(ctx, acc, p)
		if err != nil {
			return err
		}
		if bad > 0 {
			acc.fail(bad, "%d replayed records differ from the program's (tier annotation included)", bad)
		}
		acc.tracedWall += acc.fold(p.wall)
		acc.tracedOps += n
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// replayPass replays one pass and returns the number of records that differ
// from the program's.
func (s *sweep) replayPass(ctx context.Context, acc *traceAcc, p passOut) (int, error) {
	s.replayBuf.Reset()
	r := &replay{tr: &acc.tr, out: &s.replayBuf}
	var tier *storeTier
	order := s.scenarios
	if s.cached {
		dir := s.warmDir
		if s.fresh {
			var err error
			if dir, err = os.MkdirTemp(s.e.tmp, "replay-"); err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
		}
		r.tr.begin(stStoreOpen, -1)
		st, err := store.Open(dir, store.Options{})
		r.tr.end()
		if err != nil {
			return 0, err
		}
		defer st.Close()
		r.cache = memo.New[task.Outcome](0)
		tier = &storeTier{tr: r.tr, st: st}
		r.cache.SetTier(tier)
		order = campaign.DecorrelateOrbits(s.scenarios)
	}
	bad := 0
	for _, sc := range order {
		rec, err := r.scenario(ctx, sc, tier)
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", sc.Key(), err)
		}
		if !sameRecord(rec, p.recs[sc.Index], false) {
			bad++
		}
	}
	return bad, nil
}

func unsolvable(recs []campaign.Record) int {
	n := 0
	for _, r := range recs {
		if r.Status == campaign.StatusUnsolvable {
			n++
		}
	}
	return n
}
