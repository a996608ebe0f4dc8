package core

import (
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// DirectionAgreement implements Algorithm 1 (DirAgr).  Precondition: nmDir is
// this agent's direction, in its current frame, in an assignment known to be
// a nontrivial move.  The assignment is executed twice; agents whose two-round
// displacement exceeds a full circle flip their frame.  Afterwards every
// agent's frame refers to the same objective clockwise direction.
//
// The function returns nmDir re-expressed in the (possibly flipped) frame so
// that it still denotes the same objective direction.  Cost: 2 rounds.
func DirectionAgreement(f *Frame, nmDir ring.Direction) (ring.Direction, error) {
	return engine.RunStep(f.Agent(), func(k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return DirectionAgreementStep(f, nmDir, k)
	})
}

// DirectionAgreementStep is the machine form of DirectionAgreement.
func DirectionAgreementStep(f *Frame, nmDir ring.Direction, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	// The frame holds k and nmDir like a round primitive (see framestep.go),
	// so the agreement allocates nothing.
	f.kDir, f.opDir = k, nmDir
	return f.await(f.agent.YieldRoundN(f.translate(nmDir), 2), opAgree)
}

// agree finishes Algorithm 1 from the trace of the double execution of the
// nontrivial move f.opDir: it flips the frame if the two-round displacement
// exceeds a full circle and returns the move's direction in the result.
func (f *Frame) agree(trace []engine.Observation) ring.Direction {
	if trace[0].Dist+trace[1].Dist > f.full {
		f.Flip()
		return f.opDir.Opposite()
	}
	return f.opDir
}

// DirectionAgreementOdd implements Proposition 17: for odd n the direction
// agreement problem is solved in O(1) rounds from scratch.  All agents move
// in their frame's clockwise direction; if the rotation index is zero every
// frame already points the same way, otherwise the round was a nontrivial
// move (odd n) and Algorithm 1 finishes the job.  Cost: at most 3 rounds.
func DirectionAgreementOdd(f *Frame) error {
	_, err := engine.RunStep(f.Agent(), func(k func(struct{}) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return DirectionAgreementOddStep(f, func() (engine.Yield, engine.Cont) { return k(struct{}{}) })
	})
	return err
}

// DirectionAgreementOddStep is the machine form of DirectionAgreementOdd.
func DirectionAgreementOddStep(f *Frame, k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.RoundStep(ring.Clockwise, func(obs1 engine.Observation) (engine.Yield, engine.Cont) {
		if obs1.Dist == 0 {
			return k()
		}
		return f.RoundStep(ring.Clockwise, func(obs2 engine.Observation) (engine.Yield, engine.Cont) {
			if obs1.Dist+obs2.Dist > f.FullCircle() {
				f.Flip()
			}
			return k()
		})
	})
}
