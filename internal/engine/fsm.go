// The v3 runtime's agent model: a protocol is a resumable state machine in
// continuation-passing style.  Instead of blocking inside Agent.Round, a
// machine RETURNS its next round/leap-batch request as a Yield together with
// the continuation to resume with, and the scheduler (sched.go) — one loop
// per scenario, on the caller's goroutine — executes the crossing and feeds
// the Resume back in.  No goroutine per agent, no barrier, no mutexes, no
// per-agent stacks: every mutation of protocol state happens on the scheduler
// goroutine.
//
// The same machines also run unchanged on the v2 barrier and v1 legacy
// runtimes: RunMachine drives a machine to completion through the agent's
// blocking dispatcher, which is exactly how the blocking protocol entry
// points (core.Coordinate and friends) are implemented.  One protocol source,
// three runtimes — which is what entitles the differential tests to demand
// byte-identical traces.
package engine

import (
	"fmt"

	"ringsym/internal/ring"
)

// Resume is what a machine receives when its pending yield has executed.
// Exactly one mode is populated: Obs for trace-mode yields (YieldRound,
// YieldRoundN, YieldRoundUntil, YieldSchedule), Sum for aggregate-mode yields
// (YieldRoundSum), Err when the run failed (max rounds, broken network,
// cancellation) — a machine resumed with Err must terminate, which Proto does
// automatically.
//
// Obs aliases an agent-owned scratch buffer: it is valid only until the
// machine's next yield (or return) and must be consumed — or copied —
// immediately by the continuation.
type Resume struct {
	Obs []Observation
	Sum int64
	Err error
}

// Cont is a continuation: it consumes the Resume of the previous yield and
// produces the next yield plus its continuation.  A nil returned Cont
// terminates the machine (the final Yield is ignored unless it aborts).
type Cont func(in Resume) (Yield, Cont)

// Yield is one agent's round/leap-batch request, built by the Agent's Yield*
// builders (never literally): the same validated, frame-translated submission
// the blocking Round* methods hand to the dispatcher.  A Yield carrying an
// abort error terminates the machine with that error instead of executing
// (see Abort).
//
// A Yield is a three-word handle, not the batch itself: the batch lives in the
// agent's single pending slot and b points at it.  Keeping the struct at
// register size matters because a yield is returned through every frame of a
// CPS protocol — with the batch inline, each return duff-copied ~100 bytes and
// the copies dominated small-scenario scheduling.  The one-slot regime is safe
// because a machine can have only one yield in flight: builders are called in
// return position, so a new yield is never built before the previous one
// settled.
type Yield struct {
	b     *batch // the agent's pending slot; nil on abort/terminal yields
	abort error  // validation/protocol failure: terminate instead of executing
}

// Abort terminates a machine with err without executing further rounds.  It
// is the exception channel of the CPS form: protocol code returns
// Abort(err) where the blocking form returned err, and Proto surfaces it as
// the machine's error — so intermediate layers need no error plumbing.
func Abort(err error) (Yield, Cont) { return Yield{abort: err}, nil }

// Machine is a resumable agent protocol.  Step consumes the Resume of the
// previous yield (zero on the first call) and returns the next yield; done
// reports termination, after which Step must not be called again.  Step must
// never return an abort yield (Proto intercepts them) and must request at
// least one round per yield.
type Machine interface {
	Step(in Resume) (y Yield, done bool)
}

// Proto adapts a continuation-passing protocol into a Machine with a typed
// result.  It owns the machine-level error handling: a Resume carrying a run
// failure and a yield carrying an abort both terminate the machine with that
// error, so protocol code in CPS form contains no error propagation at all —
// errors travel exactly as they did through the blocking call chain, which
// was propagate-only everywhere.
type Proto[T any] struct {
	start func(done func(T, error) (Yield, Cont)) (Yield, Cont) // until the first Step
	next  Cont
	out   T
	err   error
}

// NewProto builds a Proto from a CPS start function.  start receives the
// machine's done callback and returns the first yield; protocol code calls
// done(result, err) exactly where the blocking form returned.
func NewProto[T any](start func(done func(T, error) (Yield, Cont)) (Yield, Cont)) *Proto[T] {
	return &Proto[T]{start: start}
}

// finish is the done callback handed to the protocol by NewProto.
func (p *Proto[T]) finish(out T, err error) (Yield, Cont) {
	p.out, p.err = out, err
	return Yield{}, nil
}

// Result returns the machine's output and error; meaningful once Step
// reported done.
func (p *Proto[T]) Result() (T, error) { return p.out, p.err }

// Step implements Machine.
func (p *Proto[T]) Step(in Resume) (Yield, bool) {
	if in.Err != nil {
		p.err = in.Err
		p.start, p.next = nil, nil
		return Yield{}, true
	}
	var y Yield
	var next Cont
	if start := p.start; start != nil {
		p.start = nil
		y, next = start(p.finish)
	} else {
		y, next = p.next(in)
	}
	if y.abort != nil {
		p.err = y.abort
		p.next = nil
		return Yield{}, true
	}
	if next == nil {
		p.next = nil
		return Yield{}, true
	}
	if y.b == nil || y.b.k < 1 {
		// A continuation without a batch can never be resumed; fail loudly
		// instead of wedging the scheduler in a zero-length crossing.
		p.err = fmt.Errorf("engine: malformed yield: continuation without a round batch")
		p.next = nil
		return Yield{}, true
	}
	p.next = next
	return y, false
}

// yieldSlot returns the agent's pending slot, cleared for the next batch.
// The builders fill it field by field and return a handle to it, so a batch
// is written once, in place, never built elsewhere and copied in.
func (a *Agent) yieldSlot() *batch {
	p := a.slot
	if p == nil {
		p = &a.pend
	}
	*p = batch{}
	return p
}

// YieldRound is the yield form of Round: one round in direction dir (the
// agent's own frame); the continuation resumes with the single observation in
// Resume.Obs[0].
func (a *Agent) YieldRound(dir ring.Direction) Yield {
	if err := a.checkDir(dir); err != nil {
		return Yield{abort: err}
	}
	p := a.yieldSlot()
	p.dir, p.k, p.trace = a.objective(dir), 1, a.obsScratch(1)
	return Yield{b: p}
}

// YieldRoundN is the yield form of RoundN: k rounds in direction dir as one
// leap batch; the continuation resumes with the per-round trace in
// Resume.Obs.
func (a *Agent) YieldRoundN(dir ring.Direction, k int) Yield {
	if err := a.checkDir(dir); err != nil {
		return Yield{abort: err}
	}
	if k < 1 {
		return Yield{abort: fmt.Errorf("engine: %w: got %d", ring.ErrBadRoundCount, k)}
	}
	p := a.yieldSlot()
	p.dir, p.k, p.trace = a.objective(dir), k, a.obsScratch(k)
	return Yield{b: p}
}

// YieldRoundSum is the yield form of RoundNSum: k rounds in direction dir,
// aggregate mode; the continuation resumes with the stretch's cumulative
// own-frame displacement in Resume.Sum.
func (a *Agent) YieldRoundSum(dir ring.Direction, k int) Yield {
	if err := a.checkDir(dir); err != nil {
		return Yield{abort: err}
	}
	if k < 1 {
		return Yield{abort: fmt.Errorf("engine: %w: got %d", ring.ErrBadRoundCount, k)}
	}
	p := a.yieldSlot()
	p.dir, p.k, p.sum = a.objective(dir), k, true
	return Yield{b: p}
}

// YieldRoundUntil is the yield form of RoundUntil.  Like the blocking form it
// snapshots the agent's current displacement into the batch, so it must be
// built at yield time, not ahead of it.
func (a *Agent) YieldRoundUntil(dir ring.Direction, target int64, k int) Yield {
	if err := a.checkDir(dir); err != nil {
		return Yield{abort: err}
	}
	if k < 1 {
		return Yield{abort: fmt.Errorf("engine: %w: got %d", ring.ErrBadRoundCount, k)}
	}
	if target < 0 || target >= a.fullCircle {
		return Yield{abort: fmt.Errorf("engine: displacement target %d outside [0, %d)", target, a.fullCircle)}
	}
	p := a.yieldSlot()
	p.dir, p.k, p.trace = a.objective(dir), k, a.obsScratch(k)
	p.stop, p.stopTarget, p.objDisp = true, a.objDisp(target), a.objDisp(a.disp)
	return Yield{b: p}
}

// YieldSchedule is the yield form of RoundSchedule: a whole per-round
// direction schedule (the agent's own frame) as one batch.  The schedule is
// translated into an agent-owned scratch buffer, so the caller's slice is
// never retained.
func (a *Agent) YieldSchedule(dirs []ring.Direction) Yield {
	if len(dirs) == 0 {
		return Yield{abort: fmt.Errorf("engine: %w: empty schedule", ring.ErrBadRoundCount)}
	}
	if cap(a.dirBuf) < len(dirs) {
		a.dirBuf = make([]ring.Direction, len(dirs))
	}
	sched := a.dirBuf[:len(dirs)]
	for i, d := range dirs {
		if err := a.checkDir(d); err != nil {
			return Yield{abort: err}
		}
		sched[i] = a.objective(d)
	}
	p := a.yieldSlot()
	p.dirs, p.k, p.trace = sched, len(dirs), a.obsScratch(len(dirs))
	return Yield{b: p}
}

// settle folds a completed batch into the agent's round and displacement
// accounting — exactly what the blocking Round* methods do after awaitBatch
// returns — and builds the Resume for the continuation.  executed and agg are
// the dispatcher's results for the batch.
func (a *Agent) settle(bt *batch, executed int, agg int64) Resume {
	if bt.sum {
		own := agg
		if !a.chirality && agg != 0 {
			own = a.fullCircle - agg
		}
		a.rounds += bt.k
		a.disp = (a.disp + own) % a.fullCircle
		return Resume{Sum: own}
	}
	a.resBuf = a.finishTrace(executed, a.resBuf)
	return Resume{Obs: a.resBuf}
}

// RunMachine drives machine p to completion through the agent's blocking
// dispatcher and returns its result.  This is how the yield-form protocols
// execute on the v2 barrier and v1 legacy runtimes: the blocking protocol
// entry points are RunMachine over the same machines the v3 scheduler steps,
// so all three runtimes run literally the same protocol code.
func RunMachine[T any](a *Agent, p *Proto[T]) (T, error) {
	var in Resume
	for {
		y, done := p.Step(in)
		if done {
			return p.Result()
		}
		executed, agg, err := a.d.awaitBatch(a.idx, *y.b)
		if err != nil {
			in = Resume{Err: err}
			continue
		}
		in = a.settle(y.b, executed, agg)
	}
}

// RunStep runs a single CPS step function — a protocol fragment whose
// continuation takes the fragment's result — to completion on the blocking
// dispatcher.  It is the one-line adapter the blocking wrappers of
// sub-protocols are built from.
func RunStep[T any](a *Agent, step func(k func(T) (Yield, Cont)) (Yield, Cont)) (T, error) {
	return RunMachine(a, NewProto(func(done func(T, error) (Yield, Cont)) (Yield, Cont) {
		return step(func(v T) (Yield, Cont) { return done(v, nil) })
	}))
}
