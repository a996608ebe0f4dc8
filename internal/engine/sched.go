// The v3 scheduler: one loop per scenario, on the caller's goroutine, drives
// every agent's machine (fsm.go) to its next yield, executes the crossing
// inline through the shared leap executor (exec.go) and resumes the machines
// with their observations.  There is no barrier, no countdown, no per-agent
// wake channel and no second goroutine anywhere in the round loop — all
// protocol state, all pending slots and the ring state itself are mutated from
// the one scheduler goroutine, so the whole runtime is synchronisation-free by
// construction (ringvet's fsmguard analyzer holds protocol code to the same
// standard).
//
// Batch is the structure-of-arrays arena behind a scheduler: machine, yield,
// pending-slot and error columns indexed by ring index, plus the leap
// executor's buffers.  A campaign worker installs one Batch in its context
// (WithBatch) and sweeps a block of independent small-n scenarios through it
// per pass, so consecutive scenarios reuse the same cache-resident arena
// instead of reallocating per run.
package engine

import (
	"context"
	"fmt"
	"sync"
)

// Batch is the reusable scenario-batch arena of the v3 scheduler: every
// per-agent column the scheduler touches, stored structure-of-arrays and
// resized (capacity-reusing) per run.  A Batch is single-threaded — it must
// not be shared by concurrent runs — and is either owned by a campaign worker
// (WithBatch) or borrowed from an internal pool for the duration of one run.
type Batch struct {
	x        leapExec  // pending slots + crossing executor (shared with v2)
	machines []Machine // live machines by ring index; nil once terminated
	stepErr  []error   // terminal step failures (panics, malformed yields)
}

// NewBatch returns an empty arena; buffers grow on first use.
func NewBatch() *Batch { return &Batch{} }

// batchPool feeds runs that have no Batch in their context.
var batchPool = sync.Pool{New: func() any { return NewBatch() }}

type batchCtxKey struct{}

// WithBatch returns a context carrying b: every RunFSMContext under it reuses
// b's buffers instead of borrowing from the internal pool.  Campaign workers
// use this to keep one cache-resident arena per worker across a whole block of
// scenarios.  The Batch is single-threaded; do not share the returned context
// across concurrently running scenarios.
func WithBatch(ctx context.Context, b *Batch) context.Context {
	return context.WithValue(ctx, batchCtxKey{}, b)
}

// batchFromContext returns the context's Batch, or nil.
func batchFromContext(ctx context.Context) *Batch {
	b, _ := ctx.Value(batchCtxKey{}).(*Batch)
	return b
}

// prepare (re)sizes the arena for a run on nw, reusing capacity, and points
// every agent's pending slot at its entry of the executor's pending column.
func (b *Batch) prepare(nw *Network) {
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
// (or worker-held) Batch does not retain protocol state across scenarios, and
// hands the agents back their own pending slots.
func (b *Batch) release() {
	for i := range b.machines {
		b.machines[i] = nil
		b.stepErr[i] = nil
		b.x.pend[i] = pending{}
	}
	for _, a := range b.x.nw.agents {
		a.slot = nil
	}
}

// stepMachine advances machine i with in: a yield is recorded in the arena and
// submitted to the executor's pending slot; termination clears the machine.  A
// panic inside protocol code terminates the machine with ErrProtocolPanic —
// the per-machine analogue of the goroutine recover in the blocking runtimes —
// and never reaches the scheduler loop.
func (b *Batch) stepMachine(i int, in Resume) {
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

// crossingGuarded is leapExec.crossing with the same panic conversion the
// barrier applies: an analytic-engine panic becomes a broken-network run
// failure instead of unwinding the scheduler.
func (b *Batch) crossingGuarded(nw *Network) (active int, err error) {
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
// cancellation), sticky exactly like the barrier's: once set, every still-
// pending machine is resumed with it until it terminates.
func (b *Batch) run(ctx context.Context, nw *Network) error {
	n := len(b.machines)
	for i := 0; i < n; i++ {
		b.stepMachine(i, Resume{})
	}
	var runErr error
	done := ctx.Done()
	for {
		if runErr == nil && done != nil {
			// Checked once per crossing, matching the blocking runtimes'
			// within-one-round cancellation granularity.
			if err := ctx.Err(); err != nil {
				runErr = fmt.Errorf("engine: run aborted: %w", err)
			}
		}
		if runErr != nil {
			// Resume every pending machine with the sticky failure; Proto
			// terminates on it, and a machine that ignores it keeps being
			// resumed — the same livelock a blocking protocol that ignores
			// Round errors exhibits on the barrier.
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
		// Completion scan: a batch is complete when its cursor reached its
		// (possibly stop-shortened) count.  Count first: when the round budget
		// clamped the leap below every pending batch nobody completes, which is
		// the same budget exhaustion the per-round path reports.
		released := 0
		for i := 0; i < n; i++ {
			if b.x.submitted[i] && b.x.pend[i].pos == b.x.pend[i].k {
				released++
			}
		}
		if released == 0 {
			runErr = fmt.Errorf("%w (%d)", ErrMaxRoundsExceed, nw.cfg.MaxRounds)
			continue
		}
		for i := 0; i < n; i++ {
			if b.x.submitted[i] && b.x.pend[i].pos == b.x.pend[i].k {
				b.x.submitted[i] = false
				p := &b.x.pend[i]
				in := nw.agents[i].settle(&p.batch, p.pos, p.agg)
				b.stepMachine(i, in)
			}
		}
	}
}

// RunFSM executes one machine per agent on the v3 scheduler runtime and waits
// for all of them.  build is called once per agent, in ring-index order, to
// construct its machine.
func RunFSM[T any](nw *Network, build func(a *Agent) *Proto[T]) (*Result[T], error) {
	//ringvet:allow ctxflow context-free compatibility wrapper: RunFSMContext is the cancellable form
	return RunFSMContext(context.Background(), nw, build)
}

// RunFSMContext is the v3 runtime's entry point: it constructs one machine per
// agent and drives them all on the calling goroutine, executing crossings
// inline through the same leap executor as the v2 barrier — the round
// sequence, traces and outputs are byte-identical to Run/RunContext over the
// equivalent blocking protocol.  Cancellation is honoured between crossings,
// like the barrier's within-one-round granularity.
func RunFSMContext[T any](ctx context.Context, nw *Network, build func(a *Agent) *Proto[T]) (*Result[T], error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: run not started: %w", err)
	}
	if err := nw.beginRun(); err != nil {
		return nil, err
	}
	defer nw.endRun()

	n := nw.N()
	startRounds := nw.state.Rounds()
	b := batchFromContext(ctx)
	pooled := b == nil
	if pooled {
		b = batchPool.Get().(*Batch)
	}
	b.prepare(nw)
	defer func() {
		b.release()
		if pooled {
			batchPool.Put(b)
		}
	}()

	protos := make([]*Proto[T], n)
	for i := 0; i < n; i++ {
		a := nw.agents[i]
		// No blocking dispatcher under the scheduler: a ported protocol that
		// still calls a blocking Round* method dereferences nil, which the
		// per-step recover converts into ErrProtocolPanic for that machine.
		a.d = nil
		protos[i] = build(a)
		b.machines[i] = protos[i]
	}

	runErr := b.run(ctx, nw)

	outputs := make([]T, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		out, err := protos[i].Result()
		if b.stepErr[i] != nil {
			err = b.stepErr[i]
		}
		outputs[i] = out
		errs[i] = err
	}
	res := &Result[T]{Rounds: nw.state.Rounds() - startRounds, Outputs: outputs}
	return res, joinRunErrors(nw, runErr, errs)
}
