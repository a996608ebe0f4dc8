// The agent model: a protocol is a resumable state machine in
// continuation-passing style.  A machine never blocks; it RETURNS its next
// round/leap-batch request as a Yield together with the continuation to
// resume with, and the scheduler (sched.go) — one loop per scenario, on the
// caller's goroutine — executes the crossing and feeds the Resume back in.
// No goroutine per agent and no per-agent stacks: every mutation of protocol
// state happens on the scheduler goroutine.
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
// builders (never literally): a validated submission, translated from the
// agent's frame into the global one.  A Yield carrying an abort error
// terminates the machine with that error instead of executing (see Abort).
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
// Abort(err) to fail, and Proto surfaces it as the machine's error — so
// intermediate layers need no error plumbing.
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
// error, so protocol code in CPS form contains no error propagation at all.
type Proto[T any] struct {
	start    func(done func(T, error) (Yield, Cont)) (Yield, Cont) // until the first Step
	next     Cont
	out      T
	err      error
	finishFn func(T, error) (Yield, Cont) // finish, bound on the first Step
}

// NewProto builds a Proto from a CPS start function.  start receives the
// machine's done callback and returns the first yield; protocol code calls
// done(result, err) where it finishes.
func NewProto[T any](start func(done func(T, error) (Yield, Cont)) (Yield, Cont)) *Proto[T] {
	return &Proto[T]{start: start}
}

// rearm makes p, whose previous run is over, a fresh machine running start,
// keeping its bound finish callback.
func (p *Proto[T]) rearm(start func(done func(T, error) (Yield, Cont)) (Yield, Cont)) {
	*p = Proto[T]{start: start, finishFn: p.finishFn}
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
		if p.finishFn == nil {
			p.finishFn = p.finish
		}
		y, next = start(p.finishFn)
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
// is written once, in place, never built elsewhere and copied in.  The slot
// exists only during a run; a builder called outside one panics.
func (a *Agent) yieldSlot() *batch {
	p := a.slot
	*p = batch{}
	return p
}

// YieldRound requests one round in direction dir (the agent's own frame);
// the continuation resumes with the single observation in Resume.Obs[0].
func (a *Agent) YieldRound(dir ring.Direction) Yield {
	if err := a.checkDir(dir); err != nil {
		return Yield{abort: err}
	}
	p := a.yieldSlot()
	p.dir, p.k, p.trace = a.objective(dir), 1, a.obsScratch(1)
	return Yield{b: p}
}

// YieldRoundN requests k rounds in direction dir (the agent's own frame) as
// one leap batch: the scheduler executes the whole constant-direction stretch
// without resuming the machine in between, in closed form where the other
// agents' directions allow it.  The continuation resumes with the per-round
// trace in Resume.Obs — exactly the observations k single-round yields would
// have received.
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

// YieldRoundSum is the aggregate form of YieldRoundN for machines that only
// need the stretch's cumulative displacement: no per-round trace is
// materialised (the executor derives the total in O(1) per leap), and the
// continuation resumes with the displacement over the k rounds, measured in
// the agent's own clockwise direction modulo the full circle, in Resume.Sum.
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

// YieldRoundUntil is YieldRoundN with an early-stop condition: the batch ends
// after the first round at which the agent's cumulative run displacement
// (the value Displacement reports) equals target, even if fewer than k rounds
// have executed; the trace covers exactly the executed rounds.  The executor
// solves the stop in closed form, so the batch never overshoots the round at
// which the per-round loop — one round until Displacement() == target —
// would have stopped.  When no round in the batch reaches target, all k
// rounds execute.  The builder snapshots the agent's current displacement
// into the batch, so it must be called at yield time, not ahead of it.
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

// YieldSchedule requests a whole per-round direction schedule (the agent's
// own frame) as one batch: the scheduler executes all len(dirs) rounds
// without resuming the machine in between, leaping over the
// constant-direction stretches of the schedule, and resumes it with the
// per-round trace.  Schedules of different agents need not agree — the
// executor splits the leap wherever batch lengths or directions require.  The
// schedule is translated into the agent's scratch buffer, so the caller's
// slice is never retained.
func (a *Agent) YieldSchedule(dirs []ring.Direction) Yield {
	if len(dirs) == 0 {
		return Yield{abort: fmt.Errorf("engine: %w: empty schedule", ring.ErrBadRoundCount)}
	}
	c := a.col
	if cap(c.dirBuf) < len(dirs) {
		c.dirBuf = make([]ring.Direction, len(dirs))
	}
	sched := c.dirBuf[:len(dirs)]
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
// accounting and builds the Resume for the continuation.  executed is the
// number of rounds the batch ran (less than its k only when the stop
// condition ended it early) and agg its cumulative objective displacement
// modulo the full circle.
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
	c := a.col
	c.resBuf = a.finishTrace(executed, c.resBuf)
	return Resume{Obs: c.resBuf}
}
