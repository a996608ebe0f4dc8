package core

import (
	"fmt"

	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// LeaderElectWithNMStep implements Algorithm 2 (LeaderWithNMove).
//
// Preconditions: every agent's frame refers to the same objective clockwise
// direction (run DirectionAgreementStep first) and nmDir is this agent's
// direction, in that common frame, in an assignment known to be a nontrivial
// move.  The candidate set starts as the agents that move clockwise in the
// nontrivial move (its rotation index is nonzero) and is halved along
// identifier bits, keeping whichever half still has a nonzero rotation index
// (Lemma 3(c) guarantees one of them does).  After ⌈log2 N⌉ rounds exactly
// one agent remains.  Cost: ⌈log2 N⌉ rounds.
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

// start runs the election with s as its state, binding its callback on s's
// first election.
func (s *leaderElect) start(f *Frame, nmDir ring.Direction, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	onObsFn := s.onObsFn
	if onObsFn == nil {
		onObsFn = s.onObs
	}
	*s = leaderElect{f: f, k: k, bits: f.idBits(), inX: nmDir == ring.Clockwise, onObsFn: onObsFn}
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

// EmptinessTestStep implements Lemma 12.  All agents know the query set B
// implicitly: each caller passes whether its own identifier belongs to B.
// Precondition: every agent's frame refers to the same objective clockwise
// direction.
//
// Costs: one round in the lazy and perceptive models and in the basic model
// with odd n; 1 + ⌈log2 N⌉ rounds in the basic model with even (or unknown)
// parity.  The value k receives — whether B contains the identifier of at
// least one agent — is identical at every agent.
func EmptinessTestStep(f *Frame, inB bool, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return new(emptinessTest).start(f, inB, k)
}

// emptinessTest is the state of one EmptinessTestStep call: its callbacks
// are bound once per state and its basic-model schedule is reused, so a
// state kept across tests (csElect's) allocates nothing per test.
type emptinessTest struct {
	f         *Frame
	k         func(bool) (engine.Yield, engine.Cont)
	inB       bool
	dirs      []ring.Direction // the basic-model schedule
	onObsFn   func(engine.Observation) (engine.Yield, engine.Cont)
	onTraceFn func([]engine.Observation) (engine.Yield, engine.Cont)
}

// start runs the test with s as its state.
func (s *emptinessTest) start(f *Frame, inB bool, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if s.onObsFn == nil {
		s.onObsFn, s.onTraceFn = s.onObs, s.onTrace
	}
	s.f, s.inB, s.k = f, inB, k
	if f.agent.Model() != ring.Basic || f.agent.NParity() == engine.ParityOdd {
		return f.RoundStep(s.memberDir(inB), s.onObsFn)
	}
	// Basic model with even n: |B ∩ A| = n/2 can hide behind rotation index
	// zero.  Testing the bit-slices B ∩ {x : bit_i(x) = 0} recovers it: if
	// B ∩ A is non-empty but every slice has rotation index zero, all members
	// would share every identifier bit, which is impossible for n > 4.  The
	// whole schedule — membership round plus one round per identifier bit —
	// depends only on the agent's own membership and identifier, so it is
	// submitted as a single leap batch.
	bits := f.idBits()
	if cap(s.dirs) < 1+bits {
		s.dirs = make([]ring.Direction, 1+bits)
	}
	dirs := s.dirs[:1+bits]
	dirs[0] = s.memberDir(inB)
	for i := 1; i <= bits; i++ {
		dirs[i] = s.memberDir(inB && IDBit(f.ID(), i) == 0)
	}
	return f.RoundScheduleStep(dirs, s.onTraceFn)
}

// memberDir is the direction of a member of the tested set (clockwise) or of
// a non-member (idle in the lazy model, anticlockwise otherwise).
func (s *emptinessTest) memberDir(member bool) ring.Direction {
	switch {
	case member:
		return ring.Clockwise
	case s.f.agent.Model() == ring.Lazy:
		return ring.Idle
	default:
		return ring.Anticlockwise
	}
}

func (s *emptinessTest) onObs(obs engine.Observation) (engine.Yield, engine.Cont) {
	nonEmpty := s.inB || obs.Dist != 0 || (s.f.agent.Model().RevealsCollision() && obs.Collided)
	return s.k(nonEmpty)
}

func (s *emptinessTest) onTrace(trace []engine.Observation) (engine.Yield, engine.Cont) {
	nonEmpty := s.inB
	for _, obs := range trace {
		if obs.Dist != 0 {
			nonEmpty = true
		}
	}
	return s.k(nonEmpty)
}

// LeaderElectCommonSenseStep implements Lemma 13: with a common sense of
// direction the agent with the maximum identifier is located by binary search
// over [1, N], using EmptinessTestStep on the upper half of the remaining
// range.  Cost: ⌈log2 N⌉ emptiness tests, i.e. O(log N) rounds in the lazy,
// perceptive and odd-n basic settings and O(log² N) rounds in the basic model
// with even n.  The search's state lives in f, so a frame runs one such
// election at a time.
func LeaderElectCommonSenseStep(f *Frame, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.commonSenseState().elect.start(f, k)
}

// csElect is the state of one LeaderElectCommonSenseStep call: the binary
// search over [lo, hi] advances it in place instead of allocating a closure
// per emptiness test.
type csElect struct {
	test     emptinessTest
	f        *Frame
	k        func(bool) (engine.Yield, engine.Cont)
	lo, hi   int
	mid      int // the lower end of the tested upper half [mid, hi]
	onTestFn func(bool) (engine.Yield, engine.Cont)
}

// start runs the election with s as its state, binding its callback on s's
// first election.
func (s *csElect) start(f *Frame, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if s.onTestFn == nil {
		s.onTestFn = s.onTest
	}
	s.f, s.k = f, k
	return s.probe(1, f.IDBound())
}

// probe tests the upper half of [lo, hi], or finishes once one identifier
// remains.
func (s *csElect) probe(lo, hi int) (engine.Yield, engine.Cont) {
	id := s.f.ID()
	if lo >= hi {
		return s.k(id == lo)
	}
	s.lo, s.hi = lo, hi
	s.mid = lo + (hi-lo+1)/2
	return s.test.start(s.f, id >= s.mid && id <= hi, s.onTestFn)
}

// onTest keeps the upper half when it holds an identifier, the lower one
// otherwise.
func (s *csElect) onTest(nonEmpty bool) (engine.Yield, engine.Cont) {
	if nonEmpty {
		return s.probe(s.mid, s.hi)
	}
	return s.probe(s.lo, s.mid-1)
}

// BroadcastBitsStep lets a single distinguished agent publish a message of the
// given number of bits to every other agent using the global
// rotation-signalling channel: in the round for bit b the broadcaster moves
// clockwise when the bit is 1 and anticlockwise otherwise, while every other
// agent moves anticlockwise.  The rotation index is nonzero exactly when the
// bit is 1, which every agent observes through dist().
//
// Precondition: common sense of direction and a unique broadcaster.
// Cost: bits rounds.  Every agent's k receives the broadcaster's value.
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
