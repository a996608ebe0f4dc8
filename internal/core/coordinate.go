package core

import (
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Options configures the high-level coordination pipeline.
type Options struct {
	// CommonSense promises that all agents already share a sense of
	// direction (the Table II setting); the caller is responsible for the
	// promise being true of the underlying network.
	CommonSense bool
	// Seed drives the pseudo-random schedules used for even n.
	Seed int64
}

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

// Coordinate solves nontrivial move, direction agreement and leader election
// (Theorem 7) for the basic and lazy models, and for the perceptive model via
// the basic-model algorithms (the faster perceptive pipeline lives in
// internal/perceptive).  The route depends on the setting:
//
//   - common sense of direction promised: leader election by binary search
//     with emptiness testing (Lemma 13), then a nontrivial move from the
//     leader (Lemma 10);
//   - odd n: nontrivial move from the identifier bits (Corollary 18), then
//     Algorithm 1 and Algorithm 2;
//   - even (or unknown) n: the pseudo-random schedule substituting for
//     Theorem 27, then Algorithm 1 and Algorithm 2.
func Coordinate(a *engine.Agent, opts Options) (*Coordination, error) {
	return engine.RunMachine(a, CoordinateMachine(a, opts))
}

// CoordinateMachine builds the coordination pipeline as a resumable machine
// for the engine's v3 scheduler; Coordinate drives the same machine through
// the blocking dispatcher on the v1/v2 runtimes.
func CoordinateMachine(a *engine.Agent, opts Options) *engine.Proto[*Coordination] {
	return engine.NewProto(func(done func(*Coordination, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return CoordinateStep(a, opts, func(c *Coordination) (engine.Yield, engine.Cont) {
			return done(c, nil)
		})
	})
}

// CoordinateStep is the machine form of Coordinate.
func CoordinateStep(a *engine.Agent, opts Options, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f := NewFrame(a)
	if opts.CommonSense {
		return coordinateCommonSenseStep(f, k)
	}
	onNM := AgreeAndElect(f, k)
	if a.NParity() != engine.ParityOdd {
		return NontrivialMoveEvenStep(f, opts.Seed, onNM)
	}
	return NontrivialMoveOddStep(f, onNM)
}

// AgreeAndElect returns the continuation that completes Theorem 7's pipeline
// once a nontrivial move is known: given this agent's direction in it, the
// continuation runs direction agreement (Algorithm 1) and leader election
// (Algorithm 2) and hands k the Coordination, with the nontrivial-move stage
// counted from the rounds f had used when AgreeAndElect was called.  Pass it
// as the continuation of the nontrivial-move step.
func AgreeAndElect(f *Frame, k func(*Coordination) (engine.Yield, engine.Cont)) func(ring.Direction) (engine.Yield, engine.Cont) {
	s := &agreeElect{k: k, c: Coordination{Frame: f}, start: f.RoundsUsed()}
	s.onDirFn = s.onDir
	return s.onDirFn
}

// agreeElect is the state of the pipeline after the nontrivial move: one
// allocation carries the stage boundaries, the leader election's state and
// the result through both stages.
type agreeElect struct {
	le                      leaderElect
	c                       Coordination
	k                       func(*Coordination) (engine.Yield, engine.Cont)
	start, afterNM, afterDA int  // RoundsUsed at the stage boundaries
	agreed                  bool // direction agreement has run: onDir's second call
	onDirFn                 func(ring.Direction) (engine.Yield, engine.Cont)
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
	return s.le.start(f, nmDir, s.onLeader)
}

func (s *agreeElect) onLeader(isLeader bool) (engine.Yield, engine.Cont) {
	f := s.c.Frame
	s.c.IsLeader = isLeader
	s.c.RoundsNontrivial = s.afterNM - s.start
	s.c.RoundsAgreement = s.afterDA - s.afterNM
	s.c.RoundsLeader = f.RoundsUsed() - s.afterDA
	return s.k(&s.c)
}

// coordinateCommonSenseStep is the Table II pipeline: the frames already
// agree, so the leader is elected by binary search (Lemma 13) and a
// nontrivial move follows from the leader (Lemma 10).
func coordinateCommonSenseStep(f *Frame, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	start := f.RoundsUsed()
	return LeaderElectCommonSenseStep(f, func(isLeader bool) (engine.Yield, engine.Cont) {
		afterLeader := f.RoundsUsed()
		return NontrivialMoveFromLeaderStep(f, isLeader, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
			return k(&Coordination{
				Frame:            f,
				IsLeader:         isLeader,
				NontrivialDir:    nmDir,
				RoundsLeader:     afterLeader - start,
				RoundsNontrivial: f.RoundsUsed() - afterLeader,
			})
		})
	})
}
