package engine

import "ringsym/internal/ring"

// splitMachine is the per-round oracle of leap execution: it wraps any
// Machine and replays every k-round batch the machine yields as k
// single-round yields, honouring the batch's direction schedule, its
// RoundUntil stop condition and its aggregate (sum) mode, then resumes the
// wrapped machine with the combined Resume — the trace of the executed
// rounds, or their summed displacement.  A run in which every machine is
// split executes exactly one round per crossing, so it never leaps; whatever
// the leap executor does (stretch splits, closed-form stops, budget clamps)
// must be invisible against it.
type splitMachine struct {
	a     *Agent
	inner Machine
	cur   batch            // the wrapped machine's pending batch; k == 0 when none
	dirs  []ring.Direction // owned copy of cur.dirs
	i     int              // rounds of cur executed so far
	obs   []Observation    // own-frame trace of cur (trace mode)
	sum   int64            // own-frame displacement of cur (sum mode)
}

// Step implements Machine.
func (s *splitMachine) Step(in Resume) (Yield, bool) {
	if s.cur.k > 0 && in.Err == nil {
		obs := in.Obs[0]
		s.i++
		if s.cur.sum {
			s.sum = (s.sum + obs.Dist) % s.a.fullCircle
		} else {
			s.obs = append(s.obs, obs)
		}
		stopped := s.cur.stop && s.a.objDisp(s.a.disp) == s.cur.stopTarget
		if s.i < s.cur.k && !stopped {
			return s.round(), false
		}
		in = Resume{Obs: s.obs}
		if s.cur.sum {
			in = Resume{Sum: s.sum}
		}
	}
	s.cur.k = 0
	y, done := s.inner.Step(in)
	if done {
		return Yield{}, true
	}
	s.cur = *y.b
	s.dirs = append(s.dirs[:0], s.cur.dirs...)
	s.i, s.obs, s.sum = 0, s.obs[:0], 0
	return s.round(), false
}

// round yields the next round of the batch being replayed.
func (s *splitMachine) round() Yield {
	p := s.a.yieldSlot()
	p.dir, p.k, p.trace = s.cur.dir, 1, s.a.obsScratch(1)
	if s.cur.dirs != nil {
		p.dir = s.dirs[s.i]
	}
	return Yield{b: p}
}

// SplitBatches wraps build so that every agent's machine runs under the
// per-round oracle (splitMachine): Run(ctx, nw, SplitBatches(build)) executes
// the same protocol as Run(ctx, nw, build) one round per crossing.
func SplitBatches[T any](build func(a *Agent) *Proto[T]) func(a *Agent) *Proto[T] {
	return func(a *Agent) *Proto[T] {
		inner := build(a)
		s := &splitMachine{a: a, inner: inner}
		return NewProto(func(done func(T, error) (Yield, Cont)) (Yield, Cont) {
			var next Cont
			next = func(in Resume) (Yield, Cont) {
				y, fin := s.Step(in)
				if fin {
					return done(inner.Result())
				}
				return y, next
			}
			return next(Resume{})
		})
	}
}

// UseFreshArenas makes every run take a never-used arena until the returned
// function restores the free list: the independent oracle of the reuse
// tests.  The caller must not run protocols concurrently with the switch.
func UseFreshArenas() (restore func()) {
	testFreshArenas = true
	return func() { testFreshArenas = false }
}
