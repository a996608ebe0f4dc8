// Package core implements the paper's coordination algorithms: rotation-index
// classification (Lemma 2), direction agreement (Algorithm 1,
// Proposition 17), leader election (Algorithm 2, Lemma 13), the nontrivial
// move problem (Lemma 10, Corollary 18, Theorem 27) and emptiness testing
// (Lemma 12), together with the reductions of Theorem 7.
//
// All algorithms are written from a single agent's point of view: they take a
// *Frame (the agent plus its current software sense of direction) and are
// written in continuation-passing style (XStep functions), composing into one
// resumable machine per agent that engine.Run executes.  Every agent of the
// network runs the same function; global consistency comes from the
// observations being shared (rotation indices are global) exactly as argued in
// the paper.
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
// DirectionAgreementStep flips frames so that afterwards every agent's frame
// refers to the same objective direction.
type Frame struct {
	agent   *engine.Agent
	flipped bool
	full    int64

	// schedScratch holds frame-to-agent translations of RoundScheduleStep
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

	// The state of the pipeline stages run on the frame, at most one call of
	// each at a time (coordinate.go, nontrivial.go, leader.go); the
	// nontrivial-move states and the Table II pipeline's are allocated on
	// first use, as only one of them runs.  A pipeline frame keeps it all
	// across runs together with the callbacks bound into it.
	ae     agreeElect
	odd    *nmOdd
	search *nmSearch
	cs     *commonSense
}

// NewFrame wraps the agent with an unflipped frame (the agent's own private
// sense of direction).
func NewFrame(a *engine.Agent) *Frame {
	return &Frame{agent: a, full: a.FullCircle()}
}

// pipelineFrames keeps every agent's pipeline frame.
var pipelineFrames = engine.NewSlot[Frame]()

// PipelineFrame returns a's frame for a coordination pipeline, unflipped: the
// same Frame on every run of the agent's arena column, kept in an
// engine.Slot with its stage state and bound callbacks, so the pipelines
// allocate none of that after the column's first run.  A run uses at most one
// pipeline frame per agent; code that needs frames of its own builds them
// with NewFrame.
func PipelineFrame(a *engine.Agent) *Frame {
	f := pipelineFrames.Of(a)
	f.agent, f.flipped, f.full = a, false, a.FullCircle()
	f.op, f.kObs, f.kTrace, f.kSum, f.kClass, f.kDir = opNone, nil, nil, nil, nil, nil
	return f
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

// classOf is Lemma 2's classification from the two observations of the double
// execution.
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
