package engine

import "sync/atomic"

// Slot names one piece of per-agent protocol state that a run keeps for each
// ring index, the way it keeps the agent's observation and schedule buffers:
// Of returns the same value for a ring index within a run.  The state lives
// in the run's arena (sched.go), not on the network, so it carries over from
// run to run, whatever network the run is on, and a protocol package
// that takes its per-run state from a slot, and binds the method values its
// continuations need once into that state, allocates it once per arena
// column instead of once per run.
//
// The caller re-initialises what it reuses when a run starts: the value may
// last have served another agent of another network.  Only the run in
// progress touches it, so it needs no synchronisation; anything a run hands
// out of it (a machine's result) is valid until Run hands the arena back, so
// read such outputs in RunConsume's consume step.  Create slots in package
// variables, and call Of only during a run (from a build function or a
// machine step).
type Slot[T any] struct{ i int }

// slots counts the slots created so far; slot i is index i of column.kept.
var slots atomic.Int32

// NewSlot creates a slot.
func NewSlot[T any]() Slot[T] { return Slot[T]{i: int(slots.Add(1)) - 1} }

// Of returns a's value for the slot, zero on the column's first use of it.
func (s Slot[T]) Of(a *Agent) *T {
	c := a.col
	if s.i >= len(c.kept) {
		// At least double, so that a column's table grows a few times in its
		// life at most, but cover only the slots that exist: a fresh column
		// pays for the slots its protocols use.
		n := min(max(s.i+1, 2*len(c.kept)), int(slots.Load()))
		c.kept = append(c.kept, make([]any, n-len(c.kept))...)
	}
	v, _ := c.kept[s.i].(*T)
	if v == nil {
		v = new(T)
		c.kept[s.i] = v
	}
	return v
}

// MachineSlot builds the machines of one CPS pipeline — step, run on an
// agent with options O, ending the machine with the value it hands its
// continuation — from per-agent kept state: the Proto, the closures binding
// the agent and options to step, and the callbacks are allocated on the
// arena column's first run only.  The machine New returns is the same object
// on every run that borrows the column, so it and its result must not be
// used once Run has handed the arena back.
type MachineSlot[T, O any] struct {
	slot Slot[keptMachine[T, O]]
	step func(a *Agent, opts O, k func(T) (Yield, Cont)) (Yield, Cont)
}

// NewMachineSlot creates the machine slot of a pipeline.
func NewMachineSlot[T, O any](step func(a *Agent, opts O, k func(T) (Yield, Cont)) (Yield, Cont)) MachineSlot[T, O] {
	return MachineSlot[T, O]{slot: NewSlot[keptMachine[T, O]](), step: step}
}

// keptMachine is the per-agent state behind a MachineSlot.
type keptMachine[T, O any] struct {
	proto   Proto[T]
	a       *Agent
	opts    O
	step    func(a *Agent, opts O, k func(T) (Yield, Cont)) (Yield, Cont)
	startFn func(done func(T, error) (Yield, Cont)) (Yield, Cont)
	okFn    func(T) (Yield, Cont)
}

// New returns a's machine, re-armed to run the pipeline with opts.
func (s MachineSlot[T, O]) New(a *Agent, opts O) *Proto[T] {
	m := s.slot.Of(a)
	if m.startFn == nil {
		m.startFn, m.okFn = m.start, m.ok
	}
	m.a, m.opts, m.step = a, opts, s.step
	m.proto.rearm(m.startFn)
	return &m.proto
}

func (m *keptMachine[T, O]) start(func(T, error) (Yield, Cont)) (Yield, Cont) {
	return m.step(m.a, m.opts, m.okFn)
}

func (m *keptMachine[T, O]) ok(out T) (Yield, Cont) { return m.proto.finish(out, nil) }
