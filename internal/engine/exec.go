package engine

import (
	"fmt"

	"ringsym/internal/ring"
)

// testHookExecuteRound, when set, runs at the start of every crossing's round
// execution; tests use it to inject executor-side panics.
var testHookExecuteRound func()

// batch is one agent's submission: a schedule of one or more rounds executed
// without the agent's machine being resumed in between.  Exactly one of dir
// (constant direction) or dirs (explicit per-round schedule) is used; k is
// the schedule length.  trace, when non-nil, receives the agent's objective
// per-round observations; a nil trace requests aggregate mode, where only the
// cumulative displacement is computed (O(1) per leap instead of O(k)).
//
// stop arms the early-stop condition: the batch ends after the first round at
// which the agent's cumulative objective displacement reaches stopTarget,
// even if fewer than k rounds have executed.  objDisp seeds the executor's
// displacement tracking with the agent's displacement at submission.  The
// stop condition is solved in closed form by the executor
// (ring.(*State).StopRound), so a condition-bounded batch costs the same as a
// plain one; it exists so protocols whose per-round loops break on their own
// displacement can batch without overshooting the round they would have
// stopped at.
type batch struct {
	dir        ring.Direction
	dirs       []ring.Direction
	k          int
	trace      []ring.Observation
	sum        bool // aggregate mode: settle resumes with Sum instead of Obs
	stop       bool
	stopTarget int64
	objDisp    int64
}

// pending is a submitted batch plus the executor-owned progress through it.
type pending struct {
	batch
	pos int   // rounds of the batch already executed (fill index into trace)
	agg int64 // cumulative objective displacement of the batch, mod full circle
}

// leapExec is the crossing executor: the pending-batch slots plus the
// stretch/stop/budget loop that executes one crossing on the analytic engine.
// The scheduler (sched.go) drives it inline from its single goroutine, which
// is therefore the only one ever touching pend, submitted and the ring state.
type leapExec struct {
	nw   *Network
	full int64 // circumference in half-ticks

	pend      []pending        // submission slots by ring index
	submitted []bool           // whether agent i has an unconsumed batch
	dirs      []ring.Direction // objective direction by ring index, per stretch
	out       ring.Outcome     // single-round stretch buffer
	leap      ring.LeapOutcome // multi-round stretch buffer
}

// init points the executor at nw and (re)sizes its slots to the network's
// agent count, reusing capacity across networks of at most the previous size.
func (e *leapExec) init(nw *Network) {
	n := nw.N()
	e.nw = nw
	e.full = nw.state.FullCircle()
	if cap(e.pend) < n {
		e.pend = make([]pending, n)
		e.submitted = make([]bool, n)
		e.dirs = make([]ring.Direction, n)
		e.out.Agents = make([]ring.Observation, n)
	}
	e.pend = e.pend[:n]
	e.submitted = e.submitted[:n]
	e.dirs = e.dirs[:n]
	e.out.Agents = e.out.Agents[:n]
	for i := 0; i < n; i++ {
		e.pend[i] = pending{} // drop stale trace/schedule pointers
		e.submitted[i] = false
	}
}

// crossing executes one crossing: the minimum remaining round count over all
// pending batches, in constant-direction stretches, filling in the default
// direction (the agent's own clockwise) for agents that are no longer
// submitting.  It returns the number of pending batches (0 means every agent
// has left and nothing executed) and the run failure, fully wrapped, when the
// round budget is exhausted, the network is broken or the analytic engine
// rejects a round.  Panics in the analytic engine propagate; callers convert
// them into a broken-network failure.
func (e *leapExec) crossing() (active int, err error) {
	if testHookExecuteRound != nil {
		testHookExecuteRound()
	}
	nw := e.nw
	n := len(e.pend)

	// The leap length is the minimum remaining count across pending batches.
	// The same pass writes every direction that is constant for the whole
	// crossing — an agent that left gets its default, a constant-direction
	// batch its own — and notes whether any pending batch is a schedule or
	// has a stop armed, the only cases that need per-stretch work below.
	kmin := 0
	sched, stops := false, false
	for i := 0; i < n; i++ {
		if !e.submitted[i] {
			e.dirs[i] = nw.objectiveDir(i, ring.Clockwise)
			continue
		}
		p := &e.pend[i]
		active++
		if k := p.k - p.pos; active == 1 || k < kmin {
			kmin = k
		}
		if p.dirs == nil {
			e.dirs[i] = p.dir
		} else {
			sched = true
		}
		stops = stops || p.stop
	}
	if active == 0 {
		// Every agent has left; the run is over and nobody is waiting.  This
		// must precede the error checks: a protocol that terminates after
		// consuming exactly the round budget has not exceeded anything.
		return 0, nil
	}
	if nw.state.Rounds() >= nw.cfg.MaxRounds {
		return active, fmt.Errorf("%w (%d)", ErrMaxRoundsExceed, nw.cfg.MaxRounds)
	}
	if nw.broken != nil {
		return active, fmt.Errorf("%w: %w", ErrNetworkBroken, nw.broken)
	}
	if budget := nw.cfg.MaxRounds - nw.state.Rounds(); kmin > budget {
		// The round budget ends inside the leap.  Execute what fits — keeping
		// the state's round count identical to the per-round path — and let
		// the caller's completion scan fail the run if no batch fits the
		// budget.
		kmin = budget
	}

	// Execute the leap in stretches over which every agent's direction is
	// constant, so each stretch is a single closed-form step.
	for done := 0; done < kmin; {
		stretch := kmin - done
		if sched {
			// A schedule's direction changes along the leap: the stretch ends
			// where any schedule's current run of one direction does.
			for i := 0; i < n; i++ {
				p := &e.pend[i]
				if !e.submitted[i] || p.dirs == nil {
					continue
				}
				// p.pos is kept current across stretches, so it is the cursor
				// into the schedule.
				d := p.dirs[p.pos]
				e.dirs[i] = d
				run := 1
				for run < stretch && p.dirs[p.pos+run] == d {
					run++
				}
				if run < stretch {
					stretch = run
				}
			}
		}
		if stops {
			// Armed stop conditions clamp the stretch so no batch overshoots
			// the round its per-round equivalent would have stopped at.
			r := ring.RotationIndex(n, e.dirs)
			for i := 0; i < n; i++ {
				if e.submitted[i] && e.pend[i].stop {
					p := &e.pend[i]
					if j := nw.state.StopRound(nw.state.Slot(i), r, p.objDisp, p.stopTarget, stretch); j > 0 && j < stretch {
						stretch = j
					}
				}
			}
		}

		// A batch whose stop condition hits at the end of the stretch is
		// complete regardless of its remaining count; the stretch was clamped
		// so the hit is exactly at the stretch boundary.  An early stop also
		// ends the whole crossing: the model needs every agent to act in
		// every round, so no further round can execute until the stopped
		// agent submits again (or leaves).
		stopped := false
		if stretch == 1 {
			if err := nw.state.ExecuteRoundInto(e.dirs, &e.out); err != nil {
				nw.broken = err
				return active, fmt.Errorf("%w: %w", ErrNetworkBroken, err)
			}
			for i := 0; i < n; i++ {
				if !e.submitted[i] {
					continue
				}
				p := &e.pend[i]
				obs := e.out.Agents[i]
				if p.trace != nil {
					p.trace[p.pos] = obs
				}
				p.agg += obs.DistCW
				if p.agg >= e.full {
					p.agg -= e.full
				}
				p.objDisp += obs.DistCW
				if p.objDisp >= e.full {
					p.objDisp -= e.full
				}
				p.pos++
				if p.stop && p.pos < p.k && p.objDisp == p.stopTarget {
					p.k = p.pos
					stopped = true
				}
			}
		} else {
			if err := nw.state.ExecuteRoundsInto(e.dirs, stretch, &e.leap); err != nil {
				nw.broken = err
				return active, fmt.Errorf("%w: %w", ErrNetworkBroken, err)
			}
			for i := 0; i < n; i++ {
				if !e.submitted[i] {
					continue
				}
				p := &e.pend[i]
				if p.trace != nil {
					e.leap.Trace(i, p.trace[p.pos:p.pos+stretch])
				}
				// delta, p.agg and p.objDisp are all below the full circle.
				delta := e.leap.Displacement(i, stretch)
				p.agg += delta
				if p.agg >= e.full {
					p.agg -= e.full
				}
				p.objDisp += delta
				if p.objDisp >= e.full {
					p.objDisp -= e.full
				}
				p.pos += stretch
				if p.stop && p.pos < p.k && p.objDisp == p.stopTarget {
					p.k = p.pos
					stopped = true
				}
			}
		}
		done += stretch
		ctrRounds.Add(uint64(stretch))
		if stopped {
			break
		}
	}
	nw.crossings++
	if c := ctrCrossings.Add(1); c&leapSampleMask == 0 {
		emitLeapSample(c)
	}
	return active, nil
}
