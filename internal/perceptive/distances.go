package perceptive

import (
	"fmt"

	"ringsym/internal/arcsolve"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// convolutionException returns the even label that is exceptionally sent
// clockwise in the t-th Convolution round (Algorithm 6 uses
// j = (n − 2(t−1))/2, i.e. the exception label walks downwards from the
// largest even label by two per round, wrapping around).
func convolutionException(n, t int) int {
	m := n / 2
	j := (m - (t - 1)) % m
	if j <= 0 {
		j += m
	}
	return 2 * j
}

// convolutionDir is the direction of the agent with the given label in
// Convolution(e/2): odd labels move clockwise, even labels anticlockwise,
// except label e which moves clockwise.
func convolutionDir(label, e int) ring.Direction {
	if label%2 == 1 || label == e {
		return ring.Clockwise
	}
	return ring.Anticlockwise
}

// convolutionRotation is the rotation index of a Convolution round on n
// agents (2 for even n, 3 for odd n).
func convolutionRotation(n int) int {
	numCW := (n+1)/2 + 1
	return ((2*numCW-n)%n + n) % n
}

// pivotDir is the direction of the agent with the given label in Pivot(p):
// the n/2 agents clockwise of the pivot point (labels p+1..p+n/2) move
// anticlockwise and the other half moves clockwise, so the rotation index is
// zero while the collisions around the pivot yield fresh equations.
func pivotDir(label, p, n int) ring.Direction {
	d := ((label-(p+1))%n + n) % n
	if d < n/2 {
		return ring.Anticlockwise
	}
	return ring.Clockwise
}

// spanToOpposite returns the number of ring positions from the agent with
// myLabel to the nearest agent, in the direction of myDir, that moves in the
// opposite direction under the assignment dirOf.  ok is false when every
// agent moves the same way.
func spanToOpposite(dirOf func(label int) ring.Direction, myLabel, n int, myDir ring.Direction) (span int, ok bool) {
	want := myDir.Opposite()
	step := 1
	if myDir == ring.Anticlockwise {
		step = -1
	}
	for s := 1; s < n; s++ {
		l := myLabel + step*s
		l = ((l-1)%n+n)%n + 1
		if dirOf(l) == want {
			return s, true
		}
	}
	return 0, false
}

// DistancesStep implements Algorithm 6 together with the equation bookkeeping
// that the paper describes informally: every round contributes the dist()
// equation (an arc of `rotation index` consecutive gaps) and, when the agent
// collides, the coll() equation (the arc to the nearest oppositely-moving
// agent, which the agent can identify because the schedule is a function of
// the publicly known labels).  The equations are difference constraints over
// the prefix sums of the unknown gaps and are solved incrementally
// (internal/arcsolve).
//
// The schedule is the paper's: ⌈n/2⌉ Convolution rounds followed, for even n,
// by Pivot(n), Pivot(n−1), Pivot(n−2).  A completeness loop (one paired probe
// round plus, if needed, one extra Convolution round per iteration) guards
// the reconstruction so that every agent provably terminates with the full
// gap vector; with the paper's schedule the loop exits immediately.
//
// Preconditions: perceptive model, common sense of direction, labels and n
// known (RingDistStep + BroadcastSizeStep), configuration equal to the
// reference configuration the labels refer to.
//
// k receives the leader-relative gap vector (g_j is the arc from the agent with
// label j+1 to the agent with label j+2) and the agent's final ring offset
// from the reference configuration.
func DistancesStep(f *core.Frame, label, n int, k func(gaps []int64, finalOffset int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if label < 1 || label > n || n < 5 {
		return engine.Abort(fmt.Errorf("%w: label %d of %d", ErrProtocol, label, n))
	}
	s := distancesStates.Of(f.Agent())
	if err := s.solver.Reset(n, f.FullCircle()); err != nil {
		return engine.Abort(err)
	}
	if s.onScheduleFn == nil {
		s.onScheduleFn, s.onProbeFn, s.onExtraFn = s.onSchedule, s.onProbe, s.onExtra
	}
	s.f, s.k, s.label, s.n, s.offset, s.iter = f, k, label, n, 0, 0

	// The paper's main schedule — ⌈n/2⌉ Convolution rounds plus, for even n,
	// the three Pivot rounds — is fixed by the public labels alone, so every
	// agent submits it as a single leap batch and runs the equation
	// bookkeeping over the returned trace.
	rounds := (n + 1) / 2
	if n%2 == 0 {
		rounds += 3
	}
	s.dirs = s.dirs[:0]
	for t := 0; t < rounds; t++ {
		s.dirs = append(s.dirs, s.scheduled(t).dir(label))
	}
	return f.RoundScheduleStep(s.dirs, s.onScheduleFn)
}

// assignment is one round of Distances' schedule: Convolution with exception
// label param, or Pivot(param).  Both are functions of the public labels.
type assignment struct {
	pivot bool
	param int
	n     int
}

// dir is the direction of the agent with the given label.
func (as assignment) dir(label int) ring.Direction {
	if as.pivot {
		return pivotDir(label, as.param, as.n)
	}
	return convolutionDir(label, as.param)
}

// rotation is the round's rotation index.
func (as assignment) rotation() int {
	if as.pivot {
		return 0
	}
	return convolutionRotation(as.n)
}

// convolution is the t-th Convolution round (1-based).
func convolution(n, t int) assignment {
	return assignment{param: convolutionException(n, t), n: n}
}

// distances is the state of one DistancesStep call, kept per agent
// (distancesStates).
type distances struct {
	f        *core.Frame
	k        func(gaps []int64, finalOffset int) (engine.Yield, engine.Cont)
	label, n int
	solver   arcsolve.Solver
	dirs     []ring.Direction // the main schedule
	offset   int              // the agent's ring offset from the reference configuration
	iter     int              // completeness-loop iteration
	extra    assignment       // the completeness loop's Convolution round in flight

	onScheduleFn func([]engine.Observation) (engine.Yield, engine.Cont)
	onProbeFn    func(engine.Observation) (engine.Yield, engine.Cont)
	onExtraFn    func(engine.Observation) (engine.Yield, engine.Cont)
}

// scheduled returns round t (0-based) of the main schedule.
func (s *distances) scheduled(t int) assignment {
	if m := (s.n + 1) / 2; t >= m {
		return assignment{pivot: true, param: s.n - (t - m), n: s.n}
	}
	return convolution(s.n, t+1)
}

// record folds one round's observation into the solver: the dist() equation
// of the round's rotation and, on a collision, the coll() equation against
// the nearest oppositely-moving agent (identifiable because the schedule is a
// function of the public labels).
func (s *distances) record(as assignment, obs engine.Observation) error {
	n := s.n
	rotation := as.rotation()
	myDir := as.dir(s.label)
	cur := ((s.label-1+s.offset)%n + n) % n
	if rotation%n != 0 {
		if err := s.solver.AddArc(cur, rotation%n, obs.Dist); err != nil {
			return err
		}
	}
	if obs.Collided {
		if span, ok := spanToOpposite(as.dir, s.label, n, myDir); ok {
			from := cur
			if myDir == ring.Anticlockwise {
				from = ((cur-span)%n + n) % n
			}
			if err := s.solver.AddArc(from, span, 2*obs.Coll); err != nil {
				return err
			}
		}
	}
	s.offset = (s.offset + rotation) % n
	return nil
}

func (s *distances) onSchedule(trace []engine.Observation) (engine.Yield, engine.Cont) {
	for t := range trace {
		if err := s.record(s.scheduled(t), trace[t]); err != nil {
			return engine.Abort(err)
		}
	}
	return s.probe()
}

// probe runs one iteration of the completeness loop, which exits only when
// every agent has solved its system.
func (s *distances) probe() (engine.Yield, engine.Cont) {
	probeDir := ring.Clockwise
	if s.solver.Solved() {
		probeDir = ring.Anticlockwise
	}
	return s.f.RoundPairStep(probeDir, s.onProbeFn)
}

func (s *distances) onProbe(probe engine.Observation) (engine.Yield, engine.Cont) {
	if s.solver.Solved() && !probe.Collided && probe.Dist == 0 {
		gaps, err := s.solver.Gaps()
		if err != nil {
			return engine.Abort(err)
		}
		return s.k(gaps, s.offset)
	}
	if s.iter > 4*s.n {
		return engine.Abort(fmt.Errorf("%w: Distances did not converge", ErrExhausted))
	}
	s.extra = convolution(s.n, (s.n+1)/2+s.iter+1)
	return s.f.RoundStep(s.extra.dir(s.label), s.onExtraFn)
}

func (s *distances) onExtra(obs engine.Observation) (engine.Yield, engine.Cont) {
	if err := s.record(s.extra, obs); err != nil {
		return engine.Abort(err)
	}
	s.iter++
	return s.probe()
}
