package core

import (
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Coordination is the outcome of solving the three coordination problems.
type Coordination struct {
	// Frame is the agent's frame after direction agreement; all agents'
	// frames refer to the same objective clockwise direction.
	Frame *Frame
	// IsLeader reports whether this agent was elected the unique leader.
	IsLeader bool
	// NontrivialDir is this agent's direction, in the agreed frame, in an
	// assignment known to be a nontrivial move.
	NontrivialDir ring.Direction
	// RoundsNontrivial, RoundsAgreement and RoundsLeader record the number
	// of rounds spent in each stage (identical at every agent).
	RoundsNontrivial int
	RoundsAgreement  int
	RoundsLeader     int
}

// CoordinateFunc is the shape of a coordination pipeline: run on a's
// PipelineFrame, with seed for its pseudo-random schedules, it hands k the
// agent's Coordination, valid until the agent's next run.
type CoordinateFunc func(a *engine.Agent, seed int64, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)

// CoordinateOddStep solves nontrivial move, direction agreement and leader
// election (Theorem 7) for odd n: a nontrivial move from the identifier
// bits (Corollary 18), then Algorithm 1 and Algorithm 2.  It is a
// CoordinateFunc; seed is unused.
func CoordinateOddStep(a *engine.Agent, _ int64, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f := PipelineFrame(a)
	return NontrivialMoveOddStep(f, AgreeAndElect(f, k))
}

// CoordinateEvenStep is Theorem 7's pipeline for even n (or n of unknown
// parity): the pseudo-random schedule substituting for Theorem 27, then
// Algorithm 1 and Algorithm 2.  It is a CoordinateFunc.
func CoordinateEvenStep(a *engine.Agent, seed int64, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f := PipelineFrame(a)
	return NontrivialMoveEvenStep(f, seed, AgreeAndElect(f, k))
}

// AgreeAndElect returns the continuation that completes Theorem 7's pipeline
// once a nontrivial move is known: given this agent's direction in it, the
// continuation runs direction agreement (Algorithm 1) and leader election
// (Algorithm 2) and hands k the Coordination, with the nontrivial-move stage
// counted from the rounds f had used when AgreeAndElect was called.  Pass it
// as the continuation of the nontrivial-move step.  The state, the
// Coordination included, lives in f, so a frame runs one such pipeline at a
// time.
func AgreeAndElect(f *Frame, k func(*Coordination) (engine.Yield, engine.Cont)) func(ring.Direction) (engine.Yield, engine.Cont) {
	s := &f.ae
	if s.onDirFn == nil {
		s.onDirFn, s.onLeaderFn = s.onDir, s.onLeader
	}
	s.c = Coordination{Frame: f}
	s.k, s.start, s.agreed = k, f.RoundsUsed(), false
	return s.onDirFn
}

// agreeElect is the state of the pipeline after the nontrivial move: it
// carries the stage boundaries, the leader election's state and the result
// through both stages.
type agreeElect struct {
	le                      leaderElect
	c                       Coordination
	k                       func(*Coordination) (engine.Yield, engine.Cont)
	start, afterNM, afterDA int  // RoundsUsed at the stage boundaries
	agreed                  bool // direction agreement has run: onDir's second call
	onDirFn                 func(ring.Direction) (engine.Yield, engine.Cont)
	onLeaderFn              func(bool) (engine.Yield, engine.Cont)
}

// onDir receives the nontrivial move's direction, first from the
// nontrivial-move step and then, re-expressed in the agreed frame, from
// direction agreement.
func (s *agreeElect) onDir(nmDir ring.Direction) (engine.Yield, engine.Cont) {
	f := s.c.Frame
	if !s.agreed {
		s.agreed = true
		s.afterNM = f.RoundsUsed()
		return DirectionAgreementStep(f, nmDir, s.onDirFn)
	}
	s.c.NontrivialDir = nmDir
	s.afterDA = f.RoundsUsed()
	return s.le.start(f, nmDir, s.onLeaderFn)
}

func (s *agreeElect) onLeader(isLeader bool) (engine.Yield, engine.Cont) {
	f := s.c.Frame
	s.c.IsLeader = isLeader
	s.c.RoundsNontrivial = s.afterNM - s.start
	s.c.RoundsAgreement = s.afterDA - s.afterNM
	s.c.RoundsLeader = f.RoundsUsed() - s.afterDA
	return s.k(&s.c)
}

// CoordinateCommonSenseStep is the Table II pipeline, for agents promised a
// common sense of direction: the frames already agree, so the leader is
// elected by binary search (Lemma 13) and a nontrivial move follows from the
// leader (Lemma 10).  It is a CoordinateFunc; seed is unused.  The state,
// the Coordination included, lives in the agent's pipeline frame, as
// AgreeAndElect's does.
func CoordinateCommonSenseStep(a *engine.Agent, _ int64, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f := PipelineFrame(a)
	s := f.commonSenseState()
	if s.onLeaderFn == nil {
		s.onLeaderFn, s.onDirFn = s.onLeader, s.onDir
	}
	s.c = Coordination{Frame: f}
	s.k, s.start = k, f.RoundsUsed()
	return LeaderElectCommonSenseStep(f, s.onLeaderFn)
}

// commonSense is the state of the Table II pipeline: the stage boundary and
// the result, and the states of its two stages, which the stages' own entry
// points use too.
type commonSense struct {
	elect              csElect
	nm                 nmLeader
	c                  Coordination
	k                  func(*Coordination) (engine.Yield, engine.Cont)
	start, afterLeader int // RoundsUsed at the stage boundaries
	onLeaderFn         func(bool) (engine.Yield, engine.Cont)
	onDirFn            func(ring.Direction) (engine.Yield, engine.Cont)
}

// commonSenseState returns the frame's commonSense, allocating it on first
// use.
func (f *Frame) commonSenseState() *commonSense {
	if f.cs == nil {
		f.cs = new(commonSense)
	}
	return f.cs
}

func (s *commonSense) onLeader(isLeader bool) (engine.Yield, engine.Cont) {
	f := s.c.Frame
	s.c.IsLeader = isLeader
	s.afterLeader = f.RoundsUsed()
	return NontrivialMoveFromLeaderStep(f, isLeader, s.onDirFn)
}

func (s *commonSense) onDir(nmDir ring.Direction) (engine.Yield, engine.Cont) {
	f := s.c.Frame
	s.c.NontrivialDir = nmDir
	s.c.RoundsLeader = s.afterLeader - s.start
	s.c.RoundsNontrivial = f.RoundsUsed() - s.afterLeader
	return s.k(&s.c)
}
