// Package core implements the paper's coordination algorithms: rotation-index
// classification (Lemma 2), direction agreement (Algorithm 1,
// Proposition 17), leader election (Algorithm 2, Lemma 13), the nontrivial
// move problem (Lemma 10, Corollary 18, Theorem 27) and emptiness testing
// (Lemma 12), together with the reductions of Theorem 7.
//
// All algorithms are written from a single agent's point of view: they take a
// *Frame (the agent plus its current software sense of direction) and block
// on rounds through the engine runtime.  Every agent of the network runs the
// same function; global consistency comes from the observations being shared
// (rotation indices are global) exactly as argued in the paper.
package core

import (
	"errors"

	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Errors returned by the coordination algorithms.
var (
	// ErrNoNontrivialMove is returned when a search for a nontrivial move
	// exhausted its candidate schedule (for the pseudo-random schedules this
	// has negligible probability; it indicates a mis-sized family otherwise).
	ErrNoNontrivialMove = errors.New("core: could not find a nontrivial move")
	// ErrNeedPerceptive is returned when an algorithm requires the
	// perceptive model.
	ErrNeedPerceptive = errors.New("core: algorithm requires the perceptive model")
	// ErrNeedLazyOrOdd is returned when location discovery is requested in a
	// setting where it is impossible (Lemma 5).
	ErrNeedLazyOrOdd = errors.New("core: not solvable in the basic model with even n (Lemma 5)")
)

// Frame wraps an agent together with its current software sense of
// direction.  Protocols express all directions in frame coordinates;
// DirectionAgreement flips frames so that afterwards every agent's frame
// refers to the same objective direction.
type Frame struct {
	agent   *engine.Agent
	flipped bool
	full    int64

	// schedScratch holds frame-to-agent translations of RoundSchedule
	// submissions; reused across calls.
	schedScratch []ring.Direction

	// The continuation slots of the machine-form primitives (framestep.go).
	// A machine has at most one yield in flight, so each frame holds at most
	// one pending continuation: the XStep primitive that builds a yield
	// stores its k here, and resume — bound once per frame into resumeFn —
	// empties the slot before calling it.
	op       frameOp
	kObs     func(engine.Observation) (engine.Yield, engine.Cont)
	kTrace   func([]engine.Observation) (engine.Yield, engine.Cont)
	kSum     func(int64) (engine.Yield, engine.Cont)
	kClass   func(RotationClass) (engine.Yield, engine.Cont)
	kDir     func(ring.Direction) (engine.Yield, engine.Cont)
	opDir    ring.Direction     // the direction of the primitive's (first) rounds
	opObs    engine.Observation // RoundPairStep: the first round's observation
	opClass  RotationClass      // ClassifyRotationStep: the class, across the restore rounds
	resumeFn engine.Cont
}

// NewFrame wraps the agent with an unflipped frame (the agent's own private
// sense of direction).
func NewFrame(a *engine.Agent) *Frame {
	return &Frame{agent: a, full: a.FullCircle()}
}

// Agent returns the underlying agent handle.
func (f *Frame) Agent() *engine.Agent { return f.agent }

// ID returns the agent's identifier.
func (f *Frame) ID() int { return f.agent.ID() }

// IDBound returns N.
func (f *Frame) IDBound() int { return f.agent.IDBound() }

// FullCircle returns the circumference in observation units (half-ticks).
func (f *Frame) FullCircle() int64 { return f.full }

// Flipped reports whether the frame currently reverses the agent's own sense
// of direction.
func (f *Frame) Flipped() bool { return f.flipped }

// Flip reverses the frame's sense of direction.
func (f *Frame) Flip() { f.flipped = !f.flipped }

// RoundsUsed returns the number of rounds the agent has participated in.
func (f *Frame) RoundsUsed() int { return f.agent.RoundsUsed() }

// Displacement returns the cumulative displacement of the agent since the
// start of the run, measured clockwise in the frame's current orientation
// (half-ticks, modulo the full circle).
func (f *Frame) Displacement() int64 {
	d := f.agent.Displacement()
	if f.flipped && d != 0 {
		d = f.full - d
	}
	return d
}

// translate maps a frame direction to the agent's own direction.
func (f *Frame) translate(dir ring.Direction) ring.Direction {
	if f.flipped {
		return dir.Opposite()
	}
	return dir
}

// Round executes one round in which the agent moves in direction dir
// (frame coordinates) and returns the observation with dist() measured in the
// frame's clockwise direction.
func (f *Frame) Round(dir ring.Direction) (engine.Observation, error) {
	obs, err := f.agent.Round(f.translate(dir))
	if err != nil {
		return engine.Observation{}, err
	}
	if f.flipped && obs.Dist != 0 {
		obs.Dist = f.full - obs.Dist
	}
	return obs, nil
}

// retranslate maps an observation trace into the frame's orientation,
// in place.
func (f *Frame) retranslate(trace []engine.Observation) []engine.Observation {
	if f.flipped {
		for i := range trace {
			if trace[i].Dist != 0 {
				trace[i].Dist = f.full - trace[i].Dist
			}
		}
	}
	return trace
}

// RoundN executes k consecutive rounds in which the agent moves in direction
// dir (frame coordinates), submitted as a single leap batch, and returns the
// per-round observations — exactly what k sequential Round calls would have
// returned, without k barrier crossings.
func (f *Frame) RoundN(dir ring.Direction, k int) ([]engine.Observation, error) {
	return f.RoundNInto(dir, k, nil)
}

// RoundNInto is RoundN writing the trace into dst from index 0, reusing its
// capacity and overwriting any existing contents.
func (f *Frame) RoundNInto(dir ring.Direction, k int, dst []engine.Observation) ([]engine.Observation, error) {
	trace, err := f.agent.RoundNInto(f.translate(dir), k, dst)
	if err != nil {
		return nil, err
	}
	return f.retranslate(trace), nil
}

// RoundNSum executes k rounds in direction dir (frame coordinates) and
// returns only the cumulative displacement of the stretch, measured in the
// frame's clockwise direction modulo the full circle.  Use it for stretches
// whose per-round observations are discarded (restores, undo phases): the
// runtime then skips materialising the trace entirely.
func (f *Frame) RoundNSum(dir ring.Direction, k int) (int64, error) {
	sum, err := f.agent.RoundNSum(f.translate(dir), k)
	if err != nil {
		return 0, err
	}
	if f.flipped && sum != 0 {
		sum = f.full - sum
	}
	return sum, nil
}

// RoundUntil executes up to k rounds in direction dir (frame coordinates),
// stopping after the first round at which the frame displacement (the value
// Displacement reports) equals target.  The stop is solved in closed form by
// the runtime, so the batch consumes exactly as many rounds as the
// equivalent per-round loop — no overshoot.  The returned trace covers the
// executed rounds.
func (f *Frame) RoundUntil(dir ring.Direction, target int64, k int, dst []engine.Observation) ([]engine.Observation, error) {
	agentTarget := target
	if f.flipped && target != 0 {
		agentTarget = f.full - target
	}
	trace, err := f.agent.RoundUntil(f.translate(dir), agentTarget, k, dst)
	if err != nil {
		return nil, err
	}
	return f.retranslate(trace), nil
}

// RoundSchedule executes a whole per-round direction schedule (frame
// coordinates) as one batch and returns the per-round observations.  The
// schedule is translated into the agent's frame in a scratch buffer, so the
// caller's slice is never modified.
func (f *Frame) RoundSchedule(dirs []ring.Direction, dst []engine.Observation) ([]engine.Observation, error) {
	if cap(f.schedScratch) < len(dirs) {
		f.schedScratch = make([]ring.Direction, len(dirs))
	}
	sched := f.schedScratch[:len(dirs)]
	for i, d := range dirs {
		sched[i] = f.translate(d)
	}
	trace, err := f.agent.RoundSchedule(sched, dst)
	if err != nil {
		return nil, err
	}
	return f.retranslate(trace), nil
}

// RoundPair executes SINGLEROUND followed by REVERSEDROUND for the given
// direction, so that afterwards every agent is back at the position it
// occupied before the pair (provided every agent uses RoundPair with its own
// direction).  It returns the observation of the first round.
func (f *Frame) RoundPair(dir ring.Direction) (engine.Observation, error) {
	obs, err := f.Round(dir)
	if err != nil {
		return engine.Observation{}, err
	}
	if _, err := f.Round(dir.Opposite()); err != nil {
		return engine.Observation{}, err
	}
	return obs, nil
}

// RotationClass classifies the rotation index of a direction assignment as
// seen from an agent's frame (Lemma 2).
type RotationClass int8

const (
	// RotUnknown means the classification has not been performed.
	RotUnknown RotationClass = iota
	// RotZero means the rotation index is 0.
	RotZero
	// RotHalf means the rotation index is n/2.
	RotHalf
	// RotBelowHalf means the rotation index is strictly between 0 and n/2 in
	// the agent's frame.
	RotBelowHalf
	// RotAboveHalf means the rotation index is strictly between n/2 and n in
	// the agent's frame.
	RotAboveHalf
)

// String implements fmt.Stringer.
func (c RotationClass) String() string {
	switch c {
	case RotZero:
		return "zero"
	case RotHalf:
		return "half"
	case RotBelowHalf:
		return "below-half"
	case RotAboveHalf:
		return "above-half"
	default:
		return "unknown"
	}
}

// Nontrivial reports whether the classified round is a nontrivial move
// (rotation index not in {0, n/2}).  This is consistent across agents even
// though RotBelowHalf/RotAboveHalf themselves are frame-relative.
func (c RotationClass) Nontrivial() bool { return c == RotBelowHalf || c == RotAboveHalf }

// ClassifyRotation implements Lemma 2: it executes the assignment in which
// this agent moves in direction dir twice (all agents must call it with their
// respective directions) and classifies the assignment's rotation index.
// When restore is true two reversed rounds follow, so every agent ends at the
// position it started from.  Cost: 2 rounds (4 with restore).
func (f *Frame) ClassifyRotation(dir ring.Direction, restore bool) (RotationClass, error) {
	var pair [2]engine.Observation
	trace, err := f.RoundNInto(dir, 2, pair[:0])
	if err != nil {
		return RotUnknown, err
	}
	obs1, obs2 := trace[0], trace[1]
	if restore {
		// The reversed rounds' observations are discarded, so the aggregate
		// form suffices.
		if _, err := f.RoundNSum(dir.Opposite(), 2); err != nil {
			return RotUnknown, err
		}
	}
	return classOf(f.full, obs1, obs2), nil
}

// classOf is Lemma 2's classification from the two observations of the double
// execution, shared by the blocking and the machine form.
func classOf(full int64, obs1, obs2 engine.Observation) RotationClass {
	switch sum := obs1.Dist + obs2.Dist; {
	case obs1.Dist == 0:
		return RotZero
	case sum == full:
		return RotHalf
	case sum > full:
		return RotAboveHalf
	default:
		return RotBelowHalf
	}
}

// IDBit returns the i-th bit (1-based, least significant first) of id.
func IDBit(id, i int) int { return (id >> (i - 1)) & 1 }

// idBits returns the number of bit positions needed for identifiers bounded
// by the agent's IDBound.
func (f *Frame) idBits() int {
	b := 0
	for v := f.IDBound(); v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
