package core

import (
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// NontrivialMoveOddStep solves the nontrivial move problem when n is odd
// (Corollary 18).  For odd n a round is nontrivial as soon as both objective
// directions occur, so the all-clockwise round works unless every agent is
// oriented the same way, in which case the agents differ on some identifier
// bit and the corresponding bit round breaks the tie.  Cost: at most
// 2 + max{k ≥ 0 : ⌈N/2^k⌉ ≥ n} rounds, since n distinct identifiers in 1..N
// that agree on their k lowest bits need ⌈N/2^k⌉ ≥ n; that is at most
// 1 + ⌈log2 N⌉.
//
// k receives this agent's direction, in frame coordinates, in
// a round known by every agent to be a nontrivial move.
func NontrivialMoveOddStep(f *Frame, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if f.odd == nil {
		f.odd = new(nmOdd)
	}
	s := f.odd
	onObsFn := s.onObsFn
	if onObsFn == nil {
		onObsFn = s.onObs
	}
	*s = nmOdd{f: f, k: k, dir: ring.Clockwise, onObsFn: onObsFn}
	return f.RoundStep(ring.Clockwise, s.onObsFn)
}

// nmOdd is the state of one NontrivialMoveOddStep call, kept in its frame:
// the all-clockwise round (i = 0), then one round per identifier bit i until
// one is nontrivial.
type nmOdd struct {
	f       *Frame
	k       func(ring.Direction) (engine.Yield, engine.Cont)
	i       int
	dir     ring.Direction // this agent's direction in round i
	onObsFn func(engine.Observation) (engine.Yield, engine.Cont)
}

func (s *nmOdd) onObs(obs engine.Observation) (engine.Yield, engine.Cont) {
	if obs.Dist != 0 {
		return s.k(s.dir)
	}
	s.i++
	if s.i > s.f.idBits() {
		return engine.Abort(fmt.Errorf("%w: odd-n bit schedule exhausted", ErrNoNontrivialMove))
	}
	s.dir = ring.Anticlockwise
	if IDBit(s.f.ID(), s.i) == 1 {
		s.dir = ring.Clockwise
	}
	return s.f.RoundStep(s.dir, s.onObsFn)
}

// NontrivialMoveFromLeaderStep solves the nontrivial move problem in O(1)
// rounds once a unique leader exists (Lemma 10).  The two candidate
// assignments differ only in the leader's direction, so their rotation indices
// differ by 2 and cannot both lie in {0, n/2} when n > 4.  Cost: at most 4
// rounds.  The state lives in f, so a frame runs one such step at a time.
func NontrivialMoveFromLeaderStep(f *Frame, isLeader bool, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := &f.commonSenseState().nm
	if s.onClassFn == nil {
		s.onClassFn = s.onClass
	}
	s.f, s.k, s.isLeader, s.second = f, k, isLeader, false
	s.dir = ring.Clockwise
	return f.ClassifyRotationStep(s.dir, false, s.onClassFn)
}

// nmLeader is the state of one NontrivialMoveFromLeaderStep call, kept in
// its frame: the all-clockwise candidate, then the one in which the leader
// turns.
type nmLeader struct {
	f         *Frame
	k         func(ring.Direction) (engine.Yield, engine.Cont)
	isLeader  bool
	second    bool           // the second candidate is being classified
	dir       ring.Direction // this agent's direction in the candidate
	onClassFn func(RotationClass) (engine.Yield, engine.Cont)
}

func (s *nmLeader) onClass(cls RotationClass) (engine.Yield, engine.Cont) {
	if cls.Nontrivial() {
		return s.k(s.dir)
	}
	if s.second {
		return engine.Abort(fmt.Errorf("%w: leader-based candidates both trivial (is the leader unique and n > 4?)", ErrNoNontrivialMove))
	}
	s.second = true
	if s.isLeader {
		s.dir = ring.Anticlockwise
	}
	return s.f.ClassifyRotationStep(s.dir, false, s.onClassFn)
}

// NontrivialMoveSearchStep executes the direction schedule defined by the set
// family (agents whose identifier is in the i-th set move clockwise in their
// frame, all others anticlockwise) until a round with a nontrivial rotation
// index appears.  With weak set, a weakly nontrivial move (rotation index
// different from 0, Proposition 22) is accepted and each candidate costs one
// round; otherwise each candidate is classified with Lemma 2 and costs two.
//
// k receives this agent's direction in the successful round and the index of
// the successful set.
func NontrivialMoveSearchStep(f *Frame, fam comb.SetFamily, weak bool, k func(ring.Direction, int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.searchState().start(f, fam, weak, k, nil)
}

// searchState returns the frame's nmSearch, allocating it on first use.
func (f *Frame) searchState() *nmSearch {
	if f.search == nil {
		f.search = new(nmSearch)
	}
	return f.search
}

// nmSearch is the state of one NontrivialMoveSearchStep call, kept in its
// frame: the candidate loop advances it in place instead of allocating per
// candidate.
type nmSearch struct {
	f   *Frame
	fam comb.SetFamily
	// Exactly one continuation is set: k for NontrivialMoveSearchStep,
	// kDir for NontrivialMoveEvenStep, which drops the set index.
	k    func(ring.Direction, int) (engine.Yield, engine.Cont)
	kDir func(ring.Direction) (engine.Yield, engine.Cont)
	weak bool
	i    int            // the candidate set being tried
	dir  ring.Direction // this agent's direction in candidate i

	// dist is NontrivialMoveEvenStep's family, reset in place per call.
	dist comb.RandomDistinguisher

	// onObsFn serves the weak search (one round per candidate), onClassFn
	// the strong one (Lemma 2 per candidate); both are bound on first use.
	onObsFn   func(engine.Observation) (engine.Yield, engine.Cont)
	onClassFn func(RotationClass) (engine.Yield, engine.Cont)
}

// start begins a search with s as its state.
func (s *nmSearch) start(f *Frame, fam comb.SetFamily, weak bool, k func(ring.Direction, int) (engine.Yield, engine.Cont), kDir func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if s.onObsFn == nil {
		s.onObsFn, s.onClassFn = s.onObs, s.onClass
	}
	s.f, s.fam, s.weak, s.k, s.kDir = f, fam, weak, k, kDir
	return s.try(0)
}

// try executes candidate set i.
func (s *nmSearch) try(i int) (engine.Yield, engine.Cont) {
	if i >= s.fam.Len() {
		return engine.Abort(fmt.Errorf("%w: schedule of %d sets exhausted", ErrNoNontrivialMove, s.fam.Len()))
	}
	s.i = i
	s.dir = ring.Anticlockwise
	if s.fam.Contains(i, s.f.ID()) {
		s.dir = ring.Clockwise
	}
	if s.weak {
		return s.f.RoundStep(s.dir, s.onObsFn)
	}
	return s.f.ClassifyRotationStep(s.dir, false, s.onClassFn)
}

// found hands the successful candidate to the continuation.
func (s *nmSearch) found() (engine.Yield, engine.Cont) {
	if s.kDir != nil {
		return s.kDir(s.dir)
	}
	return s.k(s.dir, s.i)
}

func (s *nmSearch) onObs(obs engine.Observation) (engine.Yield, engine.Cont) {
	if obs.Dist != 0 {
		return s.found()
	}
	return s.try(s.i + 1)
}

func (s *nmSearch) onClass(cls RotationClass) (engine.Yield, engine.Cont) {
	if cls.Nontrivial() {
		return s.found()
	}
	return s.try(s.i + 1)
}

// defaultScheduleLength bounds the pseudo-random schedule used when n is
// unknown: Theorem 27 guarantees a nontrivial move within
// O(n·log(N/n)/log n) = O(N) rounds with overwhelming probability.
func defaultScheduleLength(idBound int) int {
	l := 16*idBound + 512
	return l
}

// NontrivialMoveEvenStep solves the (strong) nontrivial move problem in the
// basic or lazy model for even n using the seeded pseudo-random schedule that
// substitutes for the non-constructive sequence of Theorem 27.  The expected
// number of rounds matches Θ(n·log(N/n)/log n) up to constants; Corollary 26
// shows this is optimal up to the log n factor.
func NontrivialMoveEvenStep(f *Frame, seed int64, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := f.searchState()
	if err := s.dist.Reset(f.IDBound(), defaultScheduleLength(f.IDBound()), seed); err != nil {
		return engine.Abort(err)
	}
	return s.start(f, &s.dist, false, nil, k)
}

// WeakNontrivialMoveEvenStep is the weak variant (rotation index merely
// nonzero), the object related to (N, n/2)-distinguishers by Proposition 22.
// k also receives the index of the successful round, so that experiments can
// compare the empirical count against the distinguisher bounds of Section IV.
func WeakNontrivialMoveEvenStep(f *Frame, seed int64, k func(ring.Direction, int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	fam, err := comb.NewRandomDistinguisher(f.IDBound(), defaultScheduleLength(f.IDBound()), seed)
	if err != nil {
		return engine.Abort(err)
	}
	return NontrivialMoveSearchStep(f, fam, true, k)
}
