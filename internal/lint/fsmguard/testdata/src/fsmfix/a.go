// Package fsmfix stages clean and violating step handlers for the fsmguard
// analyzer.
package fsmfix

import (
	"sync"
	"sync/atomic"

	"ringsym/internal/engine"
)

// Clean cases: nothing here may be flagged.

// pureStep is a step handler that only composes continuations.
func pureStep(n int, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if n < 0 {
		return engine.Abort(nil)
	}
	return pureHelper(n, k)
}

// pureHelper is reachable from pureStep and equally clean.
func pureHelper(n int, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return k(n * 2)
}

// blockingWrapper is NOT a step handler (it returns plain values), so its
// synchronisation is legitimate — the v1/v2 runtimes are built from exactly
// this kind of code.
func blockingWrapper() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	ch := make(chan int, 1)
	go func() { ch <- 41 }()
	return <-ch + 1
}

// wrapperWithInlineStep mixes both: the enclosing function may synchronise,
// but its inline continuation literal is a step handler and is scanned.
func wrapperWithInlineStep() {
	var mu sync.Mutex
	mu.Lock() // fine: outside the literal
	_ = func(k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		mu.Unlock() // want `use of sync\.Unlock reachable from an FSM step handler`
		return k()
	}
	mu.Unlock()
}

// Violations.

var fixMu sync.Mutex

// lockingStep grabs a mutex from a step handler.
func lockingStep(k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	fixMu.Lock() // want `use of sync\.Lock reachable from an FSM step handler`
	return k()
}

// atomicStep touches sync/atomic from a step handler.
func atomicStep(c *atomic.Int64, k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) { // want `use of sync/atomic\.Int64 reachable from an FSM step handler`
	c.Add(1) // want `use of sync/atomic\.Add reachable from an FSM step handler`
	return k()
}

// indirectStep is clean itself but calls a helper that blocks.
func indirectStep(k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	blockingHelper()
	return k()
}

// blockingHelper is only flagged because indirectStep reaches it.
func blockingHelper() {
	ch := make(chan int) // want `channel type reachable from an FSM step handler`
	go send(ch)          // want `go statement reachable from an FSM step handler`
	select {             // want `select statement reachable from an FSM step handler`
	case <-ch: // want `channel receive reachable from an FSM step handler`
	default:
	}
}

// send is reachable from blockingHelper (transitively from indirectStep).
func send(ch chan int) { // want `channel type reachable from an FSM step handler`
	ch <- 1 // want `channel send reachable from an FSM step handler`
}

// machine exercises the Machine-interface seed shape.
type machine struct{ done atomic.Bool }

func (m *machine) Step(in engine.Resume) (engine.Yield, bool) {
	m.done.Store(true) // want `use of sync/atomic\.Store reachable from an FSM step handler`
	return engine.Yield{}, true
}

// loopState is the per-call state struct of a protocol loop: its methods,
// bound once into method values, are the loop's continuations.  They are
// step handlers by signature, so they seed the scan like any literal, and
// the plain helper methods they call are reached through the call graph.
type loopState struct {
	k       func() (engine.Yield, engine.Cont)
	rounds  int
	results chan int
	onRound engine.Cont
}

func newLoop(k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := &loopState{k: k}
	s.onRound = s.resume
	return engine.Yield{}, s.onRound
}

// resume is the bound continuation: it touches a channel directly.
func (s *loopState) resume(in engine.Resume) (engine.Yield, engine.Cont) {
	s.rounds++
	s.results <- s.rounds // want `channel send reachable from an FSM step handler`
	return s.next(int(in.Sum))
}

// next is a typed continuation method; it reaches a blocking helper method.
func (s *loopState) next(v int) (engine.Yield, engine.Cont) {
	if s.publish(v) {
		return s.k()
	}
	return engine.Yield{}, s.onRound
}

// publish is not a step handler itself, only reachable from one.
func (s *loopState) publish(v int) bool {
	select { // want `select statement reachable from an FSM step handler`
	case s.results <- v: // want `channel send reachable from an FSM step handler`
		return true
	default:
		return false
	}
}

// allowedStep exercises the escape hatch: the allow comment suppresses the
// finding, so no want is expected here.
func allowedStep(k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	fixMu.Lock() //ringvet:allow fsmguard fixture exercises the escape hatch
	return k()
}
