// Package perceptive implements the Section V algorithms of the paper, which
// exploit the coll() observable of the perceptive model: the sub-linear
// nontrivial move algorithm NMoveS (Algorithm 4), ring-distance discovery
// RingDist (Algorithm 5) and the position-discovery schedule Distances
// (Algorithm 6), culminating in Theorem 42's n/2 + o(n) location discovery.
package perceptive

import (
	"errors"
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/rcomm"
	"ringsym/internal/ring"
)

// Errors returned by the package.
var (
	ErrNeedPerceptive = errors.New("perceptive: algorithm requires the perceptive model")
	ErrExhausted      = errors.New("perceptive: schedule exhausted without success")
	ErrProtocol       = errors.New("perceptive: protocol invariant violated")
)

// NMoveSStep implements Algorithm 4: the nontrivial move problem in
// O(√n·log N) rounds without a common sense of direction.
//
// If the all-clockwise round is already nontrivial we are done.  Otherwise
// its rotation index r0 lies in {0, n/2}, and any assignment that differs
// from it in exactly one agent has rotation index r0 ± 2 ∉ {0, n/2} for
// n > 4 (the argument of Lemma 10).  The algorithm therefore thins the agents
// into local leaders over exponentially growing distances 2^k — pairwise more
// than 2^k apart, hence fewer than n/2^k of them — and executes an
// (N, 2^k)-selective family on the leaders; as soon as a set isolates exactly
// one leader, flipping exactly that leader yields a nontrivial move, which
// every agent recognises with Lemma 2.
//
// k receives this agent's direction, in its frame, in a round known by every
// agent to be a nontrivial move.
func NMoveSStep(f *core.Frame, seed int64, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if !f.Agent().Model().RevealsCollision() {
		return engine.Abort(ErrNeedPerceptive)
	}
	s := nmoveStates.Of(f.Agent())
	if s.onClassFn == nil {
		s.onClassFn, s.onLinkFn, s.onMaxFn = s.onClass, s.onLink, s.onMax
	}
	s.f, s.seed, s.k, s.dir, s.link = f, seed, k, ring.Clockwise, nil
	return f.ClassifyRotationStep(ring.Clockwise, true, s.onClassFn)
}

// The agents keep the state of the package's multi-round steps, one slot per
// step, so it is allocated, and its callbacks bound, on the first run of the
// agent's arena column only.  A run executes at most one call of each step per
// agent at a time.
var (
	nmoveStates     = engine.NewSlot[nmoveS]()
	ringDistStates  = engine.NewSlot[ringDist]()
	broadcastStates = engine.NewSlot[broadcastSize]()
	distancesStates = engine.NewSlot[distances]()
	discoveryStates = engine.NewSlot[locationDiscovery]()
)

// nmoveS is the state of one NMoveSStep call: the all-clockwise probe, then
// per level the leader thinning and the selective family's candidates, each
// classified with Lemma 2.
type nmoveS struct {
	f        *core.Frame
	seed     int64
	k        func(ring.Direction) (engine.Yield, engine.Cont)
	link     *rcomm.Link // nil during the all-clockwise probe
	isLeader bool        // whether this agent is a local leader at level lvl
	lvl      int
	fam      comb.RandomSelective // level lvl's selective family
	i        int                  // the candidate set in flight
	dir      ring.Direction       // this agent's direction in the classified round

	onClassFn func(core.RotationClass) (engine.Yield, engine.Cont)
	onLinkFn  func(*rcomm.Link) (engine.Yield, engine.Cont)
	onMaxFn   func(max uint64, found bool) (engine.Yield, engine.Cont)
}

func (s *nmoveS) onClass(cls core.RotationClass) (engine.Yield, engine.Cont) {
	if cls.Nontrivial() {
		return s.k(s.dir)
	}
	if s.link == nil {
		return rcomm.EstablishStep(s.f, s.onLinkFn)
	}
	return s.try(s.i + 1)
}

func (s *nmoveS) onLink(link *rcomm.Link) (engine.Yield, engine.Cont) {
	s.link = link
	s.isLeader = true // L_0 contains every agent
	return s.level(0)
}

// level thins the leaders to level lvl: a level-(k-1) leader survives to
// level k iff its identifier is maximal among level-(k-1) leaders within
// ring distance 2^k.
func (s *nmoveS) level(lvl int) (engine.Yield, engine.Cont) {
	d := 1 << lvl
	if d > 2*s.f.IDBound() {
		return engine.Abort(fmt.Errorf("%w: local-leader hierarchy exceeded the identifier bound", ErrExhausted))
	}
	s.lvl = lvl
	return s.link.AggregateMaxStep(s.isLeader, uint64(s.f.ID()), comb.Bits(s.f.IDBound()), d, s.onMaxFn)
}

func (s *nmoveS) onMax(max uint64, found bool) (engine.Yield, engine.Cont) {
	if s.isLeader && found && int(max) > s.f.ID() {
		s.isLeader = false
	}
	// Execute the (N, 2^k)-selective family on the surviving leaders:
	// leaders contained in the current set flip to anticlockwise, every
	// other agent stays clockwise.
	if err := s.fam.Reset(s.f.IDBound(), 1<<s.lvl, s.seed^int64(s.lvl)*0x9e3779b9, 0); err != nil {
		return engine.Abort(err)
	}
	return s.try(0)
}

// try classifies candidate set i, or moves up a level after the last one.
func (s *nmoveS) try(i int) (engine.Yield, engine.Cont) {
	if i == s.fam.Len() {
		return s.level(s.lvl + 1)
	}
	s.i = i
	s.dir = ring.Clockwise
	if s.isLeader && s.fam.Contains(i, s.f.ID()) {
		s.dir = ring.Anticlockwise
	}
	return s.f.ClassifyRotationStep(s.dir, true, s.onClassFn)
}

// CoordinateStep solves nontrivial move, direction agreement and leader
// election in the perceptive model in O(√n·log N) rounds (Table I, last row),
// by composing NMoveSStep with Algorithm 1 and Algorithm 2.  It is a
// core.CoordinateFunc: seed drives NMoveS's pseudo-random selective
// families, k receives the agent's Coordination, and it runs on the agent's
// core.PipelineFrame.
func CoordinateStep(a *engine.Agent, seed int64, k func(*core.Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f := core.PipelineFrame(a)
	return NMoveSStep(f, seed, core.AgreeAndElect(f, k))
}
