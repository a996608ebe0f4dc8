// Machine (CPS) forms of the Frame round primitives, for protocols running on
// the engine's v3 scheduler.  Each XStep method mirrors its blocking
// counterpart X exactly — same validation, same frame translation on the way
// in, same flip adjustment on the way out — but instead of blocking it returns
// a yield plus the continuation to resume with, so a whole protocol built from
// these composes into one resumable state machine (engine.Proto).  Errors need
// no plumbing: validation failures abort the machine through the yield and run
// failures arrive as Resume errors, both intercepted by engine.Proto.
//
// The primitives allocate nothing per round.  The continuation a primitive
// returns is always the frame's resume method, bound once per frame; the
// caller's k waits in the frame's slot for that kind (see Frame).  This is
// sound for the same reason the engine's one-slot Yield handle is: a machine
// has at most one yield in flight, so a slot is always emptied before the
// next primitive on the frame fills it.
//
// Observation-slice arguments passed to continuations alias the agent's resume
// buffer: consume (or copy) them before the next yield.
package core

import (
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// frameOp names the primitive whose continuation a frame is holding, i.e.
// what resume must do with the next Resume.
type frameOp uint8

const (
	opNone                frameOp = iota
	opRound                       // RoundStep: kObs receives the observation
	opTrace                       // RoundNStep, RoundUntilStep, RoundScheduleStep: kTrace receives the trace
	opSum                         // RoundNSumStep: kSum receives the displacement
	opPairFirst                   // RoundPairStep: keep the observation, run the reversed round
	opPairSecond                  // RoundPairStep: kObs receives the first round's observation
	opClassify                    // ClassifyRotationStep: kClass receives the class
	opClassifyThenRestore         // ClassifyRotationStep with restore: classify, run the reversed rounds
	opRestored                    // ClassifyRotationStep with restore: kClass receives the class
	opAgree                       // DirectionAgreementStep: kDir receives the re-expressed direction
)

// flipObs maps one observation into the frame's orientation.
func (f *Frame) flipObs(obs engine.Observation) engine.Observation {
	if f.flipped && obs.Dist != 0 {
		obs.Dist = f.full - obs.Dist
	}
	return obs
}

// await records op as the frame's pending primitive and returns y with the
// frame's resume continuation, binding it on first use.
func (f *Frame) await(y engine.Yield, op frameOp) (engine.Yield, engine.Cont) {
	f.op = op
	if f.resumeFn == nil {
		f.resumeFn = f.resume
	}
	return y, f.resumeFn
}

// resume is the continuation of every primitive on the frame: it translates
// the Resume into the frame's orientation, empties the pending slot and
// calls the continuation that was waiting in it.
func (f *Frame) resume(in engine.Resume) (engine.Yield, engine.Cont) {
	op := f.op
	f.op = opNone
	switch op {
	case opRound:
		k := f.kObs
		f.kObs = nil
		return k(f.flipObs(in.Obs[0]))
	case opTrace:
		k := f.kTrace
		f.kTrace = nil
		return k(f.retranslate(in.Obs))
	case opSum:
		sum := in.Sum
		if f.flipped && sum != 0 {
			sum = f.full - sum
		}
		k := f.kSum
		f.kSum = nil
		return k(sum)
	case opPairFirst:
		f.opObs = f.flipObs(in.Obs[0])
		return f.await(f.agent.YieldRound(f.translate(f.opDir.Opposite())), opPairSecond)
	case opPairSecond:
		k := f.kObs
		f.kObs = nil
		return k(f.opObs)
	case opClassify, opClassifyThenRestore:
		trace := f.retranslate(in.Obs)
		cls := classOf(f.full, trace[0], trace[1])
		if op == opClassifyThenRestore {
			// The reversed rounds' observations are discarded, so the
			// aggregate form suffices.
			f.opClass = cls
			return f.await(f.agent.YieldRoundSum(f.translate(f.opDir.Opposite()), 2), opRestored)
		}
		k := f.kClass
		f.kClass = nil
		return k(cls)
	case opRestored:
		k := f.kClass
		f.kClass = nil
		return k(f.opClass)
	case opAgree:
		dir := f.agree(f.retranslate(in.Obs))
		k := f.kDir
		f.kDir = nil
		return k(dir)
	}
	panic("core: frame resumed with no round primitive pending")
}

// RoundStep is the machine form of Round: one round in direction dir (frame
// coordinates); k receives the observation in the frame's orientation.
func (f *Frame) RoundStep(dir ring.Direction, k func(engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f.kObs = k
	return f.await(f.agent.YieldRound(f.translate(dir)), opRound)
}

// RoundNStep is the machine form of RoundN: n rounds in direction dir as one
// leap batch; k receives the per-round trace (frame orientation, aliasing the
// resume buffer).
func (f *Frame) RoundNStep(dir ring.Direction, n int, k func([]engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f.kTrace = k
	return f.await(f.agent.YieldRoundN(f.translate(dir), n), opTrace)
}

// RoundNSumStep is the machine form of RoundNSum: k receives the stretch's
// cumulative displacement in the frame's orientation.
func (f *Frame) RoundNSumStep(dir ring.Direction, n int, k func(int64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f.kSum = k
	return f.await(f.agent.YieldRoundSum(f.translate(dir), n), opSum)
}

// RoundUntilStep is the machine form of RoundUntil.  Like the blocking form
// (and YieldRoundUntil) it snapshots the agent's displacement, so it must be
// invoked at yield time, not built ahead.
func (f *Frame) RoundUntilStep(dir ring.Direction, target int64, n int, k func([]engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	agentTarget := target
	if f.flipped && target != 0 {
		agentTarget = f.full - target
	}
	f.kTrace = k
	return f.await(f.agent.YieldRoundUntil(f.translate(dir), agentTarget, n), opTrace)
}

// RoundScheduleStep is the machine form of RoundSchedule: a whole per-round
// direction schedule (frame coordinates) as one batch.
func (f *Frame) RoundScheduleStep(dirs []ring.Direction, k func([]engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if cap(f.schedScratch) < len(dirs) {
		f.schedScratch = make([]ring.Direction, len(dirs))
	}
	sched := f.schedScratch[:len(dirs)]
	for i, d := range dirs {
		sched[i] = f.translate(d)
	}
	f.kTrace = k
	return f.await(f.agent.YieldSchedule(sched), opTrace)
}

// RoundPairStep is the machine form of RoundPair: SINGLEROUND then
// REVERSEDROUND; k receives the first round's observation.
func (f *Frame) RoundPairStep(dir ring.Direction, k func(engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f.kObs, f.opDir = k, dir
	return f.await(f.agent.YieldRound(f.translate(dir)), opPairFirst)
}

// ClassifyRotationStep is the machine form of ClassifyRotation (Lemma 2).
func (f *Frame) ClassifyRotationStep(dir ring.Direction, restore bool, k func(RotationClass) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f.kClass, f.opDir = k, dir
	op := opClassify
	if restore {
		op = opClassifyThenRestore
	}
	return f.await(f.agent.YieldRoundN(f.translate(dir), 2), op)
}
