package core

import (
	"fmt"

	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// LeaderElectWithNM implements Algorithm 2 (LeaderWithNMove).
//
// Preconditions: every agent's frame refers to the same objective clockwise
// direction (run DirectionAgreement first) and nmDir is this agent's
// direction, in that common frame, in an assignment known to be a nontrivial
// move.  The candidate set starts as the agents that move clockwise in the
// nontrivial move (its rotation index is nonzero) and is halved along
// identifier bits, keeping whichever half still has a nonzero rotation index
// (Lemma 3(c) guarantees one of them does).  After ⌈log2 N⌉ rounds exactly
// one agent remains.  Cost: ⌈log2 N⌉ rounds.
func LeaderElectWithNM(f *Frame, nmDir ring.Direction) (bool, error) {
	return engine.RunStep(f.Agent(), func(k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return LeaderElectWithNMStep(f, nmDir, k)
	})
}

// LeaderElectWithNMStep is the machine form of LeaderElectWithNM.
func LeaderElectWithNMStep(f *Frame, nmDir ring.Direction, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return new(leaderElect).start(f, nmDir, k)
}

// leaderElect is the state of one LeaderElectWithNMStep call: the bit loop
// advances it in place instead of allocating a closure per round.
type leaderElect struct {
	f       *Frame
	k       func(bool) (engine.Yield, engine.Cont)
	bits    int
	i       int  // the identifier bit of the pending round
	inX     bool // whether this agent is still a candidate
	inX0    bool // whether it moves clockwise in round i (candidate with bit i = 0)
	onObsFn func(engine.Observation) (engine.Yield, engine.Cont)
}

// start runs the election with s as its state.
func (s *leaderElect) start(f *Frame, nmDir ring.Direction, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	*s = leaderElect{f: f, k: k, bits: f.idBits(), inX: nmDir == ring.Clockwise}
	s.onObsFn = s.onObs
	return s.bit(1)
}

// bit runs the round for identifier bit i, or finishes after the last bit.
func (s *leaderElect) bit(i int) (engine.Yield, engine.Cont) {
	if i > s.bits {
		return s.k(s.inX)
	}
	s.i = i
	s.inX0 = s.inX && IDBit(s.f.ID(), i) == 0
	dir := ring.Anticlockwise
	if s.inX0 {
		dir = ring.Clockwise
	}
	return s.f.RoundStep(dir, s.onObsFn)
}

// onObs keeps whichever half of the candidates has a nonzero rotation index.
func (s *leaderElect) onObs(obs engine.Observation) (engine.Yield, engine.Cont) {
	if obs.Dist != 0 {
		s.inX = s.inX0
	} else {
		s.inX = s.inX && !s.inX0
	}
	return s.bit(s.i + 1)
}

// EmptinessTest implements Lemma 12.  All agents know the query set B
// implicitly: each caller passes whether its own identifier belongs to B.
// Precondition: every agent's frame refers to the same objective clockwise
// direction.
//
// Costs: one round in the lazy and perceptive models and in the basic model
// with odd n; 1 + ⌈log2 N⌉ rounds in the basic model with even (or unknown)
// parity.  The returned value — whether B contains the identifier of at least
// one agent — is identical at every agent.
func EmptinessTest(f *Frame, inB bool) (bool, error) {
	return engine.RunStep(f.Agent(), func(k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return EmptinessTestStep(f, inB, k)
	})
}

// EmptinessTestStep is the machine form of EmptinessTest.
func EmptinessTestStep(f *Frame, inB bool, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	model := f.agent.Model()

	memberDir := func(member bool) ring.Direction {
		if member {
			return ring.Clockwise
		}
		if model == ring.Lazy {
			return ring.Idle
		}
		return ring.Anticlockwise
	}

	needBitRounds := model == ring.Basic && f.agent.NParity() != engine.ParityOdd
	if !needBitRounds {
		return f.RoundStep(memberDir(inB), func(obs engine.Observation) (engine.Yield, engine.Cont) {
			nonEmpty := inB
			if obs.Dist != 0 || (model.RevealsCollision() && obs.Collided) {
				nonEmpty = true
			}
			return k(nonEmpty)
		})
	}
	// Basic model with even n: |B ∩ A| = n/2 can hide behind rotation index
	// zero.  Testing the bit-slices B ∩ {x : bit_i(x) = 0} recovers it: if
	// B ∩ A is non-empty but every slice has rotation index zero, all members
	// would share every identifier bit, which is impossible for n > 4.  The
	// whole schedule — membership round plus one round per identifier bit —
	// depends only on the agent's own membership and identifier, so it is
	// submitted as a single leap batch.
	dirs := make([]ring.Direction, 1+f.idBits())
	dirs[0] = memberDir(inB)
	for i := 1; i <= f.idBits(); i++ {
		dirs[i] = memberDir(inB && IDBit(f.ID(), i) == 0)
	}
	return f.RoundScheduleStep(dirs, func(trace []engine.Observation) (engine.Yield, engine.Cont) {
		nonEmpty := inB
		for _, obs := range trace {
			if obs.Dist != 0 {
				nonEmpty = true
			}
		}
		return k(nonEmpty)
	})
}

// LeaderElectCommonSense implements Lemma 13: with a common sense of
// direction the agent with the maximum identifier is located by binary search
// over [1, N], using EmptinessTest on the upper half of the remaining range.
// Cost: ⌈log2 N⌉ emptiness tests, i.e. O(log N) rounds in the lazy,
// perceptive and odd-n basic settings and O(log² N) rounds in the basic model
// with even n.
func LeaderElectCommonSense(f *Frame) (bool, error) {
	return engine.RunStep(f.Agent(), func(k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return LeaderElectCommonSenseStep(f, k)
	})
}

// LeaderElectCommonSenseStep is the machine form of LeaderElectCommonSense.
func LeaderElectCommonSenseStep(f *Frame, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	var probe func(lo, hi int) (engine.Yield, engine.Cont)
	probe = func(lo, hi int) (engine.Yield, engine.Cont) {
		if lo >= hi {
			return k(f.ID() == lo)
		}
		mid := lo + (hi-lo+1)/2
		inB := f.ID() >= mid && f.ID() <= hi
		return EmptinessTestStep(f, inB, func(nonEmpty bool) (engine.Yield, engine.Cont) {
			if nonEmpty {
				return probe(mid, hi)
			}
			return probe(lo, mid-1)
		})
	}
	return probe(1, f.IDBound())
}

// BroadcastBits lets a single distinguished agent publish a message of the
// given number of bits to every other agent using the global
// rotation-signalling channel: in the round for bit b the broadcaster moves
// clockwise when the bit is 1 and anticlockwise otherwise, while every other
// agent moves anticlockwise.  The rotation index is nonzero exactly when the
// bit is 1, which every agent observes through dist().
//
// Precondition: common sense of direction and a unique broadcaster.
// Cost: bits rounds.  Every agent returns the broadcaster's value.
func BroadcastBits(f *Frame, isBroadcaster bool, value uint64, bits int) (uint64, error) {
	return engine.RunStep(f.Agent(), func(k func(uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return BroadcastBitsStep(f, isBroadcaster, value, bits, k)
	})
}

// BroadcastBitsStep is the machine form of BroadcastBits.
func BroadcastBitsStep(f *Frame, isBroadcaster bool, value uint64, bits int, k func(uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if bits <= 0 || bits > 63 {
		return engine.Abort(fmt.Errorf("core: BroadcastBits supports 1..63 bits, got %d", bits))
	}
	// The whole broadcast schedule is known upfront (it depends only on the
	// broadcaster's own value), so all bit rounds go out as one leap batch.
	dirs := make([]ring.Direction, bits)
	for i := 0; i < bits; i++ {
		dirs[i] = ring.Anticlockwise
		if isBroadcaster && (value>>i)&1 == 1 {
			dirs[i] = ring.Clockwise
		}
	}
	return f.RoundScheduleStep(dirs, func(trace []engine.Observation) (engine.Yield, engine.Cont) {
		var received uint64
		for i, obs := range trace {
			if obs.Dist != 0 {
				received |= 1 << i
			}
		}
		return k(received)
	})
}
