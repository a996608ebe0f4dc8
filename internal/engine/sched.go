// The scheduler: one loop per scenario, on the caller's goroutine, drives
// every agent's machine (fsm.go) to its next yield, executes the crossing
// inline through the leap executor (exec.go) and resumes the machines with
// their observations.  There is no second goroutine anywhere in the round
// loop — all protocol state, all pending slots and the ring state itself are
// mutated from the one scheduler goroutine, so the whole runtime is
// synchronisation-free by construction (ringvet's fsmguard analyzer holds
// protocol code to the same standard).
//
// Each run borrows its arena from one process-wide free list and returns it
// cleared of the run's machines and network.  The arena holds every column a
// run touches, indexed by ring index: the machine, step-error and
// pending-slot columns, the leap executor's buffers, and the state an agent
// keeps from run to run (its scratch buffers and the protocol packages' kept
// state, keep.go), which prepare hands to the agents and release takes back.
// So a sweep of small-n scenarios reuses warm state without any caller
// holding scheduler state, and a fresh network computes as cheaply as a
// reused one.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ringsym/internal/ring"
)

// arena is the scheduler's structure-of-arrays scratch: every per-agent
// column a run touches, resized (capacity-reusing) per run.  An arena belongs
// to one run at a time: Run takes it from the free list and puts it back once
// release has dropped the run's machines and network.
type arena struct {
	x        leapExec  // pending slots + crossing executor
	machines []Machine // live machines by ring index; nil once terminated
	stepErr  []error   // terminal step failures (panics, malformed yields)
	cols     []column  // the agents' kept state by ring index
}

// column is what agent i of a run keeps from run to run, lent by the arena
// for the run (Agent.col).  objBuf receives the executor-written objective
// observations and dirBuf holds the objective translation of a schedule;
// both stay stable while the agent's batch is pending, which is the only time
// the executor reads them.  resBuf holds the own-frame translation of the
// trace a machine is resumed with (fsm.go); it is valid until the machine's
// next yield.  kept holds the protocol packages' state by Slot index
// (keep.go).
type column struct {
	objBuf []ring.Observation
	dirBuf []ring.Direction
	resBuf []Observation
	kept   []any
}

// The free list of arenas.  It keeps at most 2×GOMAXPROCS arenas, enough
// for every scheduler goroutine that can run at once plus one waiting each,
// and none with more than maxArenaCols columns: kept state grows with n per
// column, so an arena that once ran n = 2048 holds about n² words.  A mutex
// list, not a sync.Pool: the race build's sync.Pool drops one Put in four,
// and it empties on every other GC, so a sweep would rebuild its warm state
// from nothing again and again.  An idle arena's kept state may still point
// at the last network it ran (a frame names its agent) until its next run;
// the two bounds cap what that keeps alive.
var arenas struct {
	mu   sync.Mutex
	free []*arena
}

// maxArenaCols is the most columns an arena on the free list may hold.
const maxArenaCols = 256

// testFreshArenas makes every run take a never-used arena and drop it
// afterwards: the independent oracle of the reuse tests.
var testFreshArenas bool

// getArena takes the most recently returned arena, or a new one.
func getArena() *arena {
	if testFreshArenas {
		return new(arena)
	}
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	k := len(arenas.free)
	if k == 0 {
		return new(arena)
	}
	b := arenas.free[k-1]
	arenas.free[k-1] = nil
	arenas.free = arenas.free[:k-1]
	return b
}

// putArena returns a released arena to the free list, unless the list is
// full or the arena too wide to keep.
func putArena(b *arena) {
	if testFreshArenas || cap(b.cols) > maxArenaCols {
		return
	}
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	if len(arenas.free) < 2*runtime.GOMAXPROCS(0) {
		arenas.free = append(arenas.free, b)
	}
}

// prepare (re)sizes the arena for a run on nw, reusing capacity, and lends
// every agent its pending slot in the executor's pending column and its kept
// state.  Columns beyond n keep their state for a later, larger run.
func (b *arena) prepare(nw *Network) {
	b.x.init(nw)
	n := nw.N()
	if cap(b.machines) < n {
		b.machines = make([]Machine, n)
		b.stepErr = make([]error, n)
	}
	if cap(b.cols) < n {
		cols := make([]column, n)
		copy(cols, b.cols[:cap(b.cols)])
		b.cols = cols
	}
	b.machines = b.machines[:n]
	b.stepErr = b.stepErr[:n]
	b.cols = b.cols[:n]
	for i := range nw.agents {
		b.machines[i] = nil
		b.stepErr[i] = nil
		nw.agents[i].slot = &b.x.pend[i].batch
		nw.agents[i].col = &b.cols[i]
	}
}

// release drops the references a finished run left in the arena's machine
// and pending columns, takes the agents' pending slots and kept state back,
// and returns the arena to the free list.  The kept state stays: the next
// run re-initialises what it reuses (keep.go).
func (b *arena) release() {
	for i := range b.machines {
		b.machines[i] = nil
		b.stepErr[i] = nil
		b.x.pend[i] = pending{}
	}
	for i := range b.x.nw.agents {
		b.x.nw.agents[i].slot = nil
		b.x.nw.agents[i].col = nil
	}
	b.x.nw = nil
	putArena(b)
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
// between crossings; a context already done refuses to start the run.  Run
// hands the run's arena back before it returns, so outputs that point into
// the agents' kept state (Slot, MachineSlot) must be read with RunConsume
// instead.
func Run[T any](ctx context.Context, nw *Network, build func(a *Agent) *Proto[T]) (*Result[T], error) {
	return RunConsume(ctx, nw, build, func(res *Result[T], err error) (*Result[T], error) { return res, err })
}

// RunConsume is Run with a consume step: once every machine has terminated,
// consume receives the run's result and joined error while the run still
// holds its arena, so it may read outputs that point into the agents' kept
// state, which are valid until the arena goes back.  RunConsume returns what
// consume returns; a run that does not start returns the zero R and its
// error without calling consume.
func RunConsume[T, R any](ctx context.Context, nw *Network, build func(a *Agent) *Proto[T], consume func(*Result[T], error) (R, error)) (R, error) {
	var zero R
	if err := ctx.Err(); err != nil {
		return zero, fmt.Errorf("engine: run not started: %w", err)
	}
	if err := nw.beginRun(); err != nil {
		return zero, err
	}
	defer nw.endRun()

	n := nw.N()
	startRounds := nw.state.Rounds()
	b := getArena()
	b.prepare(nw)
	defer b.release()

	protos := make([]*Proto[T], n)
	for i := 0; i < n; i++ {
		protos[i] = build(&nw.agents[i])
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
	return consume(res, errors.Join(failed...))
}
