// Package rcomm implements the communication layer of Section V-A of the
// paper: in the perceptive model the position of the first collision lets
// neighbouring agents exchange information even though the model has no
// messages.  The package provides neighbour discovery (Algorithm 3), a 1-bit
// exchange between neighbours (Proposition 31), word exchange, and
// information dissemination along the ring (Corollaries 33 and 34), which
// together simulate a message-passing ring on top of the bouncing-agents
// model.
//
// None of the primitives requires a common sense of direction: every agent
// learns the relative orientation of its neighbours during neighbour
// discovery and all bookkeeping is done in each agent's own frame.  Every
// round issued by this package is paired with a reversed round, so the
// configuration of the ring (and hence the measured neighbour gaps) is
// restored after every operation.
package rcomm

import (
	"errors"
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Errors returned by the package.
var (
	ErrNeedPerceptive = errors.New("rcomm: the communication layer requires the perceptive model")
	ErrNoNeighbour    = errors.New("rcomm: neighbour discovery failed to locate a neighbour")
	ErrBadBits        = errors.New("rcomm: unsupported word width")
)

// Neighbors is the outcome of neighbour discovery for one agent.  Gaps are in
// half-ticks (observation units) and sides are relative to the agent's frame
// at the time of discovery.
type Neighbors struct {
	// RightGap is the arc to the neighbour on the agent's frame-clockwise
	// side.
	RightGap int64
	// LeftGap is the arc to the neighbour on the agent's frame-anticlockwise
	// side.
	LeftGap int64
	// RightSameSense reports whether the right neighbour's frame clockwise
	// direction coincides with this agent's.
	RightSameSense bool
	// LeftSameSense is the analogous flag for the left neighbour.
	LeftSameSense bool
}

// NeighborDiscovery implements Algorithm 3.  Every agent probes its
// neighbourhood for O(log N) paired rounds; because any two identifiers
// differ in some bit, each agent is guaranteed a round in which it moves
// towards each neighbour while that neighbour moves towards it, which pins
// the gap to exactly half the distance of the first collision.  Whether the
// tight collision happened in a differing-bit round or in the all-clockwise /
// all-anticlockwise round reveals the neighbour's relative orientation.
//
// Cost: 4·⌈log2 N⌉ + 4 rounds.  Positions are restored afterwards.
func NeighborDiscovery(f *core.Frame) (Neighbors, error) {
	return engine.RunStep(f.Agent(), func(k func(Neighbors) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return NeighborDiscoveryStep(f, k)
	})
}

// NeighborDiscoveryStep is the machine form of NeighborDiscovery.
func NeighborDiscoveryStep(f *core.Frame, k func(Neighbors) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if !f.Agent().Model().RevealsCollision() {
		return engine.Abort(ErrNeedPerceptive)
	}
	s := &neighborDiscovery{f: f, k: k, bits: comb.Bits(f.IDBound())}
	s.side[0] = sideProbes{min: -1, allSameColl: -1}
	s.side[1] = s.side[0]
	s.onObsFn = s.onObs
	return s.next(0)
}

// neighborDiscovery is the state of one NeighborDiscoveryStep call.  Probe i
// is, for i < 2·bits, the round of identifier bit i/2+1 in phase i%2 (the
// agent moves clockwise iff the bit equals the phase); then come the
// all-clockwise and the all-anticlockwise round.  Each probe is folded into
// the statistics of the side it moved towards as soon as it returns.
type neighborDiscovery struct {
	f       *core.Frame
	k       func(Neighbors) (engine.Yield, engine.Cont)
	bits    int
	i       int            // the probe in flight
	dir     ring.Direction // this agent's direction in probe i
	side    [2]sideProbes  // by whether the probes moved clockwise
	onObsFn func(engine.Observation) (engine.Yield, engine.Cont)
}

// sideProbes summarises the probes that moved towards one side.
type sideProbes struct {
	min         int64 // smallest first-collision arc, -1 before any collision
	allSameColl int64 // first-collision arc of the all-same-direction probe, -1 if none
}

// next runs probe i, or derives the neighbours after the last one.
func (s *neighborDiscovery) next(i int) (engine.Yield, engine.Cont) {
	if i == 2*s.bits+2 {
		var nb Neighbors
		var err error
		if nb.RightGap, nb.RightSameSense, err = s.gap(true); err != nil {
			return engine.Abort(err)
		}
		if nb.LeftGap, nb.LeftSameSense, err = s.gap(false); err != nil {
			return engine.Abort(err)
		}
		return s.k(nb)
	}
	s.i = i
	switch {
	case i == 2*s.bits:
		s.dir = ring.Clockwise
	case i == 2*s.bits+1:
		s.dir = ring.Anticlockwise
	case core.IDBit(s.f.ID(), i/2+1) == i%2:
		s.dir = ring.Clockwise
	default:
		s.dir = ring.Anticlockwise
	}
	return s.f.RoundPairStep(s.dir, s.onObsFn)
}

func (s *neighborDiscovery) onObs(obs engine.Observation) (engine.Yield, engine.Cont) {
	coll := int64(-1)
	if obs.Collided {
		coll = obs.Coll
	}
	sp := &s.side[0]
	if s.dir == ring.Clockwise {
		sp = &s.side[1]
	}
	if s.i >= 2*s.bits {
		sp.allSameColl = coll
	}
	if coll >= 0 && (sp.min < 0 || coll < sp.min) {
		sp.min = coll
	}
	return s.next(s.i + 1)
}

// gap returns the gap to the neighbour on the given side and whether it
// shares this agent's sense of direction.
func (s *neighborDiscovery) gap(cw bool) (gap int64, sameSense bool, err error) {
	sp := s.side[0]
	if cw {
		sp = s.side[1]
	}
	if sp.min < 0 {
		return 0, false, fmt.Errorf("%w (moving clockwise=%v)", ErrNoNeighbour, cw)
	}
	// In the round where every agent moves the same frame direction, a
	// neighbour with the opposite sense of direction moves towards us and
	// produces the tight collision at half the gap; a neighbour with the
	// same sense moves away and the first collision (if any) is strictly
	// farther.  The neighbour's orientation therefore follows from whether
	// that round achieved the minimum.
	return 2 * sp.min, sp.allSameColl != sp.min, nil
}
