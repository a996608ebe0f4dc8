package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/engine"
	"ringsym/internal/store"
)

// Pool sizes.  Every measured pool runs one worker per CPU, as
// campaign.Options, ringfarm and ringd default to.  The traced replay of a
// sweep is compared with a one-worker pass of the program, the only pool
// size at which the tier serving each scenario is deterministic.
var poolWorkers = runtime.GOMAXPROCS(0)

const replayWorkers = 1

// sweep is a local campaign workload: grid-local (cache off), sym-cold
// (cache on, a fresh store per pass) or sym-warm (cache on, a store filled
// during set-up, reopened every pass).
type sweep struct {
	e         *env
	name      string
	scenarios []campaign.Scenario
	ref       [][]byte
	refSum    [32]byte // grid-local: the golden digest of the whole artefact
	cached    bool
	fresh     bool   // sym-cold: every pass opens a new, empty store
	warm      bool   // sym-warm: every pass must be served without computing
	warmDir   string // the store every pass reopens
	want      map[string]uint64
	buf       bytes.Buffer // the program's JSONL artefact
	replayBuf bytes.Buffer // the traced replay's
}

func newGridLocal(ctx context.Context, e *env) (instance, error) {
	s := &sweep{e: e, name: "grid-local", scenarios: e.grid, ref: e.gridRef, refSum: e.gridSum}
	return s, s.warmUp(ctx)
}

func newSymCold(ctx context.Context, e *env) (instance, error) {
	s := &sweep{e: e, name: "sym-cold", scenarios: e.sym, ref: e.symRef, cached: true, fresh: true}
	return s, s.warmUp(ctx)
}

// newSymWarm fills a store with one cold pass — part of the program's
// set-up, like a daemon that restarts over its store — then warms up.
func newSymWarm(ctx context.Context, e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "warm-")
	if err != nil {
		return nil, err
	}
	s := &sweep{e: e, name: "sym-warm", scenarios: e.sym, ref: e.symRef, cached: true, warm: true, warmDir: dir}
	fill := &sweep{e: e, name: "sym-fill", scenarios: e.sym, ref: e.symRef, cached: true, warmDir: dir}
	p, err := fill.pass(ctx, poolWorkers)
	if err == nil {
		err = fill.check(p, nil)
	}
	if err == nil && p.counts["puts"] == 0 {
		err = fmt.Errorf("the cold fill stored nothing")
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := s.warmUp(ctx); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if s.want["disk_hits"] != p.counts["computes"] {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("warm pass took %d disk hits for %d cold computes", s.want["disk_hits"], p.counts["computes"])
	}
	return s, nil
}

// warmUp runs the first pass, checks it, and pins its counts: every later
// pass must repeat them exactly.
func (s *sweep) warmUp(ctx context.Context) error {
	p, err := s.pass(ctx, poolWorkers)
	if err != nil {
		return err
	}
	if err := s.check(p, nil); err != nil {
		return err
	}
	s.want = p.counts
	return nil
}

// passOut is one sweep pass: the records, the encoded artefact, the timed
// wall and the work counts.
type passOut struct {
	recs      []campaign.Record
	jsonl     []byte
	wall      time.Duration // store.Open + RunAll + JSONL encode
	openWall  time.Duration
	closeWall time.Duration
	counts    map[string]uint64
}

// pass runs the sweep once.  The timed region is what a user of the sweep
// waits for: opening the store, running every scenario and encoding the
// ordered JSONL artefact.  Creating and closing the store directory are
// outside it.
func (s *sweep) pass(ctx context.Context, workers int) (passOut, error) {
	dir := s.warmDir
	if s.fresh {
		var err error
		if dir, err = os.MkdirTemp(s.e.tmp, "cold-"); err != nil {
			return passOut{}, err
		}
		defer os.RemoveAll(dir)
	}
	var out passOut
	c0 := engine.CounterSnapshot()
	start := time.Now()
	opts := campaign.Options{Workers: workers}
	var st *store.Store
	if s.cached {
		opts.Cache = campaign.NewCache(0)
		var err error
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return passOut{}, err
		}
		out.openWall = time.Since(start)
		opts.Cache.AttachTier(st, nil)
	}
	recs, err := campaign.RunAll(ctx, s.scenarios, opts)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return passOut{}, err
	}
	s.buf.Reset()
	ow := campaign.NewOrderedWriter(&s.buf, s.scenarios)
	for _, rec := range recs {
		ow.Add(rec) // a bytes.Buffer write cannot fail
	}
	out.wall = time.Since(start)
	c1 := engine.CounterSnapshot()
	out.recs, out.jsonl = recs, s.buf.Bytes()
	out.counts = map[string]uint64{
		"records":   uint64(len(recs)),
		"rounds":    c1.Rounds - c0.Rounds,
		"crossings": c1.LeapBatches - c0.LeapBatches,
	}
	if opts.Cache != nil {
		cs := opts.Cache.Stats()
		out.counts["computes"] = cs.Misses
		out.counts["disk_hits"] = cs.DiskHits
		out.counts["evictions"] = cs.Evictions
	}
	if st != nil {
		ss := st.Stats()
		out.counts["puts"] = ss.Puts
		out.counts["store_bytes"] = uint64(ss.TotalBytes)
		t := time.Now()
		err := st.Close()
		out.closeWall = time.Since(t)
		if err != nil {
			return passOut{}, err
		}
	}
	return out, nil
}

// check verifies a pass against ground truth: the golden artefact for the
// grid, the uncached records (cache annotation aside) for the symmetric
// sweep, and the counts pinned by the warm-up pass.  With acc nil the first
// failure is returned as an error; otherwise failures are counted there.
func (s *sweep) check(p passOut, acc *checks) error {
	failf := func(n int, format string, args ...any) error {
		return failWith(acc, s.name, n, format, args...)
	}
	n := len(s.scenarios)
	if s.cached {
		bad := 0
		for i, rec := range p.recs {
			rec.Cache = ""
			line, err := json.Marshal(rec)
			if err != nil || i >= len(s.ref) || !bytes.Equal(line, s.ref[i]) {
				bad++
			}
		}
		if len(p.recs) != n {
			bad = n
		}
		if bad > 0 {
			return failf(bad, "%d of %d records differ from the uncached run", bad, n)
		}
		if c := p.counts; c["computes"] != c["puts"] && s.fresh {
			return failf(n, "%d computes but %d store puts", c["computes"], c["puts"])
		}
		if c := p.counts; s.warm && c["computes"] != 0 {
			return failf(n, "warm pass computed %d scenarios", c["computes"])
		}
	} else if sha256.Sum256(p.jsonl) != s.refSum {
		bad := diffLines(p.jsonl, s.ref)
		return failf(max(bad, 1), "%d of %d records differ from the golden sweep", bad, n)
	}
	if s.want != nil && !maps.Equal(p.counts, s.want) {
		return failf(n, "counts %v differ from the first pass's %v", p.counts, s.want)
	}
	return nil
}

func (s *sweep) measure(ctx context.Context, deadline time.Time, acc *e2eAcc) (int, time.Duration, error) {
	var done int
	var wall time.Duration
	for {
		p, err := s.pass(ctx, poolWorkers)
		if err != nil {
			return 0, 0, err
		}
		acc.attempted += int64(len(s.scenarios))
		acc.latencyUS = append(acc.latencyUS, float64(p.wall.Nanoseconds())/1e3)
		done += len(s.scenarios)
		wall += p.wall
		s.check(p, &acc.checks)
		if !time.Now().Before(deadline) {
			return done, wall, nil
		}
	}
}

func (s *sweep) counts() map[string]uint64 { return s.want }

func (s *sweep) close() error {
	if s.warmDir != "" {
		return os.RemoveAll(s.warmDir)
	}
	return nil
}

// failWith reports a failed check on n scenarios: counted on acc, or
// returned as an error when acc is nil (a set-up must not fail a check).
func failWith(acc *checks, name string, n int, format string, args ...any) error {
	if acc == nil {
		return fmt.Errorf(name+": "+format, args...)
	}
	acc.fail(n, format, args...)
	return nil
}
