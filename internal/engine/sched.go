// The scheduler: one loop per scenario, on the caller's goroutine, drives
// every agent's machine (fsm.go) to its next yield, executes the crossing
// inline through the leap executor (exec.go) and resumes the machines with
// their observations.  There is no second goroutine anywhere in the round
// loop — all protocol state, all pending slots and the ring state itself are
// mutated from the one scheduler goroutine, so the whole runtime is
// synchronisation-free by construction (ringvet's fsmguard analyzer holds
// protocol code to the same standard).
//
// Each run borrows its arena (machine, step-error and pending-slot columns
// indexed by ring index, plus the leap executor's buffers) from one
// process-wide pool and returns it cleared, so a sweep of small-n scenarios
// reuses warm arrays without any caller holding scheduler state.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// arena is the scheduler's structure-of-arrays scratch: every per-agent
// column a run touches, resized (capacity-reusing) per run.  An arena belongs
// to one run at a time: Run takes it from arenaPool and puts it back once
// release has dropped everything the run left in it.
type arena struct {
	x        leapExec  // pending slots + crossing executor
	machines []Machine // live machines by ring index; nil once terminated
	stepErr  []error   // terminal step failures (panics, malformed yields)
}

// arenaPool lends every Run its arena.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// prepare (re)sizes the arena for a run on nw, reusing capacity, and points
// every agent's pending slot at its entry of the executor's pending column.
func (b *arena) prepare(nw *Network) {
	b.x.init(nw)
	n := nw.N()
	if cap(b.machines) < n {
		b.machines = make([]Machine, n)
		b.stepErr = make([]error, n)
	}
	b.machines = b.machines[:n]
	b.stepErr = b.stepErr[:n]
	for i := 0; i < n; i++ {
		b.machines[i] = nil
		b.stepErr[i] = nil
		nw.agents[i].slot = &b.x.pend[i].batch
	}
}

// release drops the references a finished run left in the arena so a pooled
// arena does not retain protocol state or the network across runs, and hands
// the agents back their own pending slots.
func (b *arena) release() {
	for i := range b.machines {
		b.machines[i] = nil
		b.stepErr[i] = nil
		b.x.pend[i] = pending{}
	}
	for _, a := range b.x.nw.agents {
		a.slot = nil
	}
	b.x.nw = nil
}

// stepMachine advances machine i with in: a yield is recorded in the arena and
// submitted to the executor's pending slot; termination clears the machine.  A
// panic inside protocol code terminates the machine with ErrProtocolPanic and
// never reaches the scheduler loop.
func (b *arena) stepMachine(i int, in Resume) {
	m := b.machines[i]
	if m == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			b.stepErr[i] = fmt.Errorf("%w: %v", ErrProtocolPanic, r)
			b.machines[i] = nil
			b.x.submitted[i] = false
		}
	}()
	y, done := m.Step(in)
	if done {
		b.machines[i] = nil
		return
	}
	p := &b.x.pend[i]
	if y.b == nil || y.b.k < 1 {
		// Proto never emits this; guard hand-written Machines from wedging the
		// crossing loop with an unresumable zero-length batch.
		b.stepErr[i] = fmt.Errorf("engine: malformed yield: continuation without a round batch")
		b.machines[i] = nil
		return
	}
	if y.b != &p.batch {
		// The builders wrote the batch into some other slot: another agent's
		// (whose pending batch it overwrote) or one outside this run.
		b.stepErr[i] = fmt.Errorf("engine: malformed yield: batch built outside agent %d's slot", i)
		b.machines[i] = nil
		return
	}
	// The agent's builder wrote the batch straight into its executor slot;
	// only the executor's progress needs resetting.
	p.pos, p.agg = 0, 0
	b.x.submitted[i] = true
}

// crossingGuarded is leapExec.crossing with panic conversion: an
// analytic-engine panic becomes a broken-network run failure instead of
// unwinding the scheduler.
func (b *arena) crossingGuarded(nw *Network) (active int, err error) {
	defer func() {
		if r := recover(); r != nil {
			nw.broken = fmt.Errorf("round execution panicked: %v", r)
			err = fmt.Errorf("%w: %w", ErrNetworkBroken, nw.broken)
		}
	}()
	return b.x.crossing()
}

// run is the scheduler loop: step every machine to its first yield, then
// alternate crossings and resumptions until every machine has terminated.
// The returned error is the run-level failure (max rounds, broken network,
// cancellation), and it is sticky: once set, every still-pending machine is
// resumed with it until it terminates.
func (b *arena) run(ctx context.Context, nw *Network) error {
	n := len(b.machines)
	for i := 0; i < n; i++ {
		b.stepMachine(i, Resume{})
	}
	var runErr error
	done := ctx.Done()
	for {
		if runErr == nil && done != nil {
			// Checked once per crossing: cancellation lands within one
			// crossing.
			if err := ctx.Err(); err != nil {
				runErr = fmt.Errorf("engine: run aborted: %w", err)
			}
		}
		if runErr != nil {
			// Resume every pending machine with the sticky failure; Proto
			// terminates on it, and a hand-written machine that ignores it
			// keeps being resumed until it stops yielding.
			pendingCount := 0
			for i := 0; i < n; i++ {
				if b.x.submitted[i] {
					pendingCount++
					b.x.submitted[i] = false
					b.x.pend[i] = pending{}
					b.stepMachine(i, Resume{Err: runErr})
				}
			}
			if pendingCount == 0 {
				return runErr
			}
			continue
		}
		active, err := b.crossingGuarded(nw)
		if err != nil {
			runErr = err
			continue
		}
		if active == 0 {
			// Every machine terminated without a pending yield; the run is over.
			return nil
		}
		// Completion pass: a batch is complete when its cursor reached its
		// (possibly stop-shortened) count; its agent settles and its machine
		// steps to the next yield.  When the round budget clamped the leap
		// below every pending batch nobody completes, which is the same
		// budget exhaustion the per-round path reports.
		released := 0
		for i := 0; i < n; i++ {
			if b.x.submitted[i] && b.x.pend[i].pos == b.x.pend[i].k {
				released++
				b.x.submitted[i] = false
				p := &b.x.pend[i]
				in := nw.agents[i].settle(&p.batch, p.pos, p.agg)
				b.stepMachine(i, in)
			}
		}
		if released == 0 {
			runErr = fmt.Errorf("%w (%d)", ErrMaxRoundsExceed, nw.cfg.MaxRounds)
		}
	}
}

// Run executes one machine per agent and waits for all of them: build is
// called once per agent, in ring-index order, to construct its machine, and
// every machine is then driven on the calling goroutine, crossings executing
// inline through the leap executor.  It returns the per-agent outputs
// (indexed by ring index) and the number of rounds consumed; the run-level
// failure (max rounds, broken network, cancellation) and the per-agent
// protocol errors are joined into a single error.  Cancellation is honoured
// between crossings; a context already done refuses to start the run.
func Run[T any](ctx context.Context, nw *Network, build func(a *Agent) *Proto[T]) (*Result[T], error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: run not started: %w", err)
	}
	if err := nw.beginRun(); err != nil {
		return nil, err
	}
	defer nw.endRun()

	n := nw.N()
	startRounds := nw.state.Rounds()
	b := arenaPool.Get().(*arena)
	b.prepare(nw)
	defer func() {
		b.release()
		arenaPool.Put(b)
	}()

	protos := make([]*Proto[T], n)
	for i := 0; i < n; i++ {
		protos[i] = build(nw.agents[i])
		b.machines[i] = protos[i]
	}

	runErr := b.run(ctx, nw)

	outputs := make([]T, n)
	var failed []error // built only when something failed
	if runErr != nil {
		failed = append(failed, runErr)
	}
	for i := 0; i < n; i++ {
		out, err := protos[i].Result()
		if b.stepErr[i] != nil {
			err = b.stepErr[i]
		}
		outputs[i] = out
		if err != nil {
			failed = append(failed, fmt.Errorf("agent id %d: %w", nw.cfg.IDs[i], err))
		}
	}
	res := &Result[T]{Rounds: nw.state.Rounds() - startRounds, Outputs: outputs}
	return res, errors.Join(failed...)
}
