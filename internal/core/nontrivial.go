package core

import (
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// NontrivialMoveOdd solves the nontrivial move problem when n is odd
// (Corollary 18).  For odd n a round is nontrivial as soon as both objective
// directions occur, so the all-clockwise round works unless every agent is
// oriented the same way, in which case the agents differ on some identifier
// bit and the corresponding bit round breaks the tie.  Cost: at most
// 1 + ⌈log2 N⌉ rounds.
//
// The returned direction is this agent's direction, in frame coordinates, in
// a round known by every agent to be a nontrivial move.
func NontrivialMoveOdd(f *Frame) (ring.Direction, error) {
	return engine.RunStep(f.Agent(), func(k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return NontrivialMoveOddStep(f, k)
	})
}

// NontrivialMoveOddStep is the machine form of NontrivialMoveOdd.
func NontrivialMoveOddStep(f *Frame, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := &nmOdd{f: f, k: k, dir: ring.Clockwise}
	s.onObsFn = s.onObs
	return f.RoundStep(ring.Clockwise, s.onObsFn)
}

// nmOdd is the state of one NontrivialMoveOddStep call: the all-clockwise
// round (i = 0), then one round per identifier bit i until one is
// nontrivial.
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

// NontrivialMoveFromLeader solves the nontrivial move problem in O(1) rounds
// once a unique leader exists (Lemma 10).  The two candidate assignments
// differ only in the leader's direction, so their rotation indices differ by
// 2 and cannot both lie in {0, n/2} when n > 4.  Cost: at most 4 rounds.
func NontrivialMoveFromLeader(f *Frame, isLeader bool) (ring.Direction, error) {
	return engine.RunStep(f.Agent(), func(k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return NontrivialMoveFromLeaderStep(f, isLeader, k)
	})
}

// NontrivialMoveFromLeaderStep is the machine form of NontrivialMoveFromLeader.
func NontrivialMoveFromLeaderStep(f *Frame, isLeader bool, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.ClassifyRotationStep(ring.Clockwise, false, func(cls RotationClass) (engine.Yield, engine.Cont) {
		if cls.Nontrivial() {
			return k(ring.Clockwise)
		}
		dir := ring.Clockwise
		if isLeader {
			dir = ring.Anticlockwise
		}
		return f.ClassifyRotationStep(dir, false, func(cls RotationClass) (engine.Yield, engine.Cont) {
			if cls.Nontrivial() {
				return k(dir)
			}
			return engine.Abort(fmt.Errorf("%w: leader-based candidates both trivial (is the leader unique and n > 4?)", ErrNoNontrivialMove))
		})
	})
}

// NontrivialMoveSearch executes the direction schedule defined by the set
// family (agents whose identifier is in the i-th set move clockwise in their
// frame, all others anticlockwise) until a round with a nontrivial rotation
// index appears.  With weak set, a weakly nontrivial move (rotation index
// different from 0, Proposition 22) is accepted and each candidate costs one
// round; otherwise each candidate is classified with Lemma 2 and costs two.
//
// It returns this agent's direction in the successful round and the index of
// the successful set.
func NontrivialMoveSearch(f *Frame, fam comb.SetFamily, weak bool) (ring.Direction, int, error) {
	type hit struct {
		dir ring.Direction
		set int
	}
	h, err := engine.RunStep(f.Agent(), func(k func(hit) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return NontrivialMoveSearchStep(f, fam, weak, func(dir ring.Direction, set int) (engine.Yield, engine.Cont) {
			return k(hit{dir: dir, set: set})
		})
	})
	return h.dir, h.set, err
}

// NontrivialMoveSearchStep is the machine form of NontrivialMoveSearch.
func NontrivialMoveSearchStep(f *Frame, fam comb.SetFamily, weak bool, k func(ring.Direction, int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := &nmSearch{f: f, fam: fam, k: k}
	if weak {
		s.onObsFn = s.onObs
	} else {
		s.onClassFn = s.onClass
	}
	return s.try(0)
}

// nmSearch is the state of one NontrivialMoveSearchStep call: the candidate
// loop advances it in place instead of allocating per candidate.
type nmSearch struct {
	f   *Frame
	fam comb.SetFamily
	k   func(ring.Direction, int) (engine.Yield, engine.Cont)
	i   int            // the candidate set being tried
	dir ring.Direction // this agent's direction in candidate i

	// Exactly one is bound: onObsFn for the weak search (one round per
	// candidate), onClassFn for the strong one (Lemma 2 per candidate).
	onObsFn   func(engine.Observation) (engine.Yield, engine.Cont)
	onClassFn func(RotationClass) (engine.Yield, engine.Cont)
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
	if s.onObsFn != nil {
		return s.f.RoundStep(s.dir, s.onObsFn)
	}
	return s.f.ClassifyRotationStep(s.dir, false, s.onClassFn)
}

func (s *nmSearch) onObs(obs engine.Observation) (engine.Yield, engine.Cont) {
	if obs.Dist != 0 {
		return s.k(s.dir, s.i)
	}
	return s.try(s.i + 1)
}

func (s *nmSearch) onClass(cls RotationClass) (engine.Yield, engine.Cont) {
	if cls.Nontrivial() {
		return s.k(s.dir, s.i)
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

// NontrivialMoveEven solves the (strong) nontrivial move problem in the basic
// or lazy model for even n using the seeded pseudo-random schedule that
// substitutes for the non-constructive sequence of Theorem 27.  The expected
// number of rounds matches Θ(n·log(N/n)/log n) up to constants; Corollary 26
// shows this is optimal up to the log n factor.
func NontrivialMoveEven(f *Frame, seed int64) (ring.Direction, error) {
	return engine.RunStep(f.Agent(), func(k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return NontrivialMoveEvenStep(f, seed, k)
	})
}

// NontrivialMoveEvenStep is the machine form of NontrivialMoveEven.
func NontrivialMoveEvenStep(f *Frame, seed int64, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	fam, err := comb.NewRandomDistinguisher(f.IDBound(), defaultScheduleLength(f.IDBound()), seed)
	if err != nil {
		return engine.Abort(err)
	}
	return NontrivialMoveSearchStep(f, fam, false, func(dir ring.Direction, _ int) (engine.Yield, engine.Cont) {
		return k(dir)
	})
}

// WeakNontrivialMoveEven is the weak variant (rotation index merely nonzero),
// the object related to (N, n/2)-distinguishers by Proposition 22.  It
// returns the index of the successful round so that experiments can compare
// the empirical count against the distinguisher bounds of Section IV.
func WeakNontrivialMoveEven(f *Frame, seed int64) (ring.Direction, int, error) {
	fam, err := comb.NewRandomDistinguisher(f.IDBound(), defaultScheduleLength(f.IDBound()), seed)
	if err != nil {
		return ring.Idle, 0, err
	}
	return NontrivialMoveSearch(f, fam, true)
}
