// Package discovery provides the location-discovery front-ends of the paper
// (Section III-D and Section V-C), the impossibility construction of Lemma 5
// and the lower bounds of Lemma 6.
//
// Location discovery asks every agent to determine the initial position of
// every other agent relative to its own initial position.  The package holds
// two pipelines; the cell table of the ringsym facade decides which one
// (and which coordination pipeline under it) runs in a setting:
//
//   - SweepStep: solve the coordination problems, then sweep the ring with
//     a constant rotation index (Lemma 16), n + o(n) rounds;
//   - PerceptiveStep: the Section V pipeline of Theorem 42
//     (internal/perceptive), n/2 + o(n) rounds in the perceptive model;
//
// and ErrNotSolvable for the basic model with even n (Lemma 5).
package discovery

import (
	"errors"
	"fmt"

	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/perceptive"
	"ringsym/internal/ring"
)

// Errors returned by the package.
var (
	// ErrNotSolvable is returned for the basic model with even n (Lemma 5).
	ErrNotSolvable = errors.New("discovery: location discovery is not solvable in the basic model with even n (Lemma 5)")
	// ErrProtocol indicates a violated invariant.
	ErrProtocol = errors.New("discovery: protocol invariant violated")
)

// Result is the outcome of location discovery for one agent.
type Result struct {
	// IsLeader reports whether this agent ended up as the leader.
	IsLeader bool
	// N is the discovered number of agents.
	N int
	// Positions[t] is the arc, in the agent's agreed clockwise direction,
	// from its initial position to the initial position of the agent at ring
	// distance t clockwise from it; Positions[0] = 0.  Half-ticks.
	Positions []int64
	// RoundsCoordination and RoundsDiscovery split the total cost into the
	// o(n) coordination part and the main discovery part.
	RoundsCoordination int
	RoundsDiscovery    int
}

// PerceptiveStep is Theorem 42's pipeline (perceptive.LocationDiscoveryStep)
// adapted to the package's Result: seed drives NMoveS, and k receives the
// agent's result.
func PerceptiveStep(a *engine.Agent, seed int64, k func(*Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := sweeps.Of(a)
	if s.onPerceptiveFn == nil {
		s.onPerceptiveFn = s.onPerceptive
	}
	s.k = k
	return perceptive.LocationDiscoveryStep(a, seed, s.onPerceptiveFn)
}

// onPerceptive completes PerceptiveStep.
func (s *sweep) onPerceptive(r *perceptive.DiscoveryResult) (engine.Yield, engine.Cont) {
	return s.k(&Result{
		IsLeader:           r.IsLeader,
		N:                  r.N,
		Positions:          r.Positions,
		RoundsCoordination: r.RoundsCoordination + r.RoundsRingDist,
		RoundsDiscovery:    r.RoundsDistances,
	})
}

// SweepStep implements Lemma 16: once the coordinate pipeline (run with
// seed) has solved the coordination problems, the agents repeat a round
// with constant rotation index `step` (1 in the lazy model: only the leader
// moves; 2 in the basic model with odd n: the leader moves clockwise and
// everybody else anticlockwise).  Each round every agent advances by `step`
// ring positions and measures the arc it traversed; after exactly n rounds
// it is back at its pre-sweep slot, has visited every slot
// (gcd(step, n) = 1) and therefore knows every initial position as well as
// n itself.  k receives the agent's result.
func SweepStep(a *engine.Agent, coordinate core.CoordinateFunc, seed int64, step int, k func(*Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := sweeps.Of(a)
	if s.startFn == nil {
		s.startFn, s.onTraceFn = s.start, s.onTrace
	}
	s.k, s.step = k, step
	return coordinate(a, seed, s.startFn)
}

// maxVisitedPrealloc caps the sweep's up-front allocation when the
// identifier bound is far above n.
const maxVisitedPrealloc = 1024

// sweeps keeps every agent's discovery state, so that its callbacks and its
// visited list's capacity carry over to the agent's next run.
var sweeps = engine.NewSlot[sweep]()

// sweep is the state of one SweepStep call; PerceptiveStep uses only its k.
type sweep struct {
	k           func(*Result) (engine.Yield, engine.Cont)
	step        int
	coord       *core.Coordination
	coordRounds int
	dir         ring.Direction
	full        int64
	circTicks   int64
	begin       int64   // the frame displacement before the sweep
	batch       int     // the size of the batch in flight
	visited     []int64 // displacements of the slots visited, in sweep order
	startFn     func(*core.Coordination) (engine.Yield, engine.Cont)
	onTraceFn   func([]engine.Observation) (engine.Yield, engine.Cont)

	onPerceptiveFn func(*perceptive.DiscoveryResult) (engine.Yield, engine.Cont)
}

// start begins the sweep once the coordination problems are solved.
func (s *sweep) start(coord *core.Coordination) (engine.Yield, engine.Cont) {
	f := coord.Frame
	s.coord = coord
	s.coordRounds = f.RoundsUsed()

	s.dir = ring.Idle
	if s.step == 2 {
		s.dir = ring.Anticlockwise
	}
	if coord.IsLeader {
		s.dir = ring.Clockwise
	}

	s.full = f.FullCircle()
	s.begin = f.Displacement()
	if s.visited == nil {
		// n never exceeds the identifier bound, so visited (n entries)
		// rarely outgrows its first allocation, which the agent keeps.
		s.visited = make([]int64, 0, min(f.IDBound(), maxVisitedPrealloc)+1)
	}
	s.visited = append(s.visited[:0], s.begin)
	// The sweep executes as leap batches of doubling size: the agent does
	// not know n, so it asks for exponentially growing constant-direction
	// batches and scans each returned displacement trace for the round at
	// which it is back at its pre-sweep position.  The engine solves that
	// stop condition in closed form (Frame.RoundUntilStep), so the batch ends
	// exactly at the return round — the same n rounds the per-round loop
	// consumed — in O(log n) scheduler visits instead of n.
	//
	// Runaway guard: positions are distinct integer ticks, so n never
	// exceeds the circumference in ticks (full is in half-ticks, twice
	// that).  The bound is kept in int64: converting the circumference to
	// int would truncate on 32-bit platforms.
	s.circTicks = s.full / 2
	s.batch = 1
	return f.RoundUntilStep(s.dir, s.begin, s.batch, s.onTraceFn)
}

// onTrace scans one batch of the sweep; the batch sizes double.
func (s *sweep) onTrace(trace []engine.Observation) (engine.Yield, engine.Cont) {
	f := s.coord.Frame
	full := s.full
	d := s.visited[len(s.visited)-1]
	returned := false
	for _, obs := range trace {
		d = (d + obs.Dist) % full
		if d == s.begin {
			returned = true
			break
		}
		s.visited = append(s.visited, d)
		if int64(len(s.visited)) > s.circTicks {
			return engine.Abort(fmt.Errorf("%w: sweep did not return to its start", ErrProtocol))
		}
	}
	if !returned {
		s.batch *= 2
		return f.RoundUntilStep(s.dir, s.begin, s.batch, s.onTraceFn)
	}
	visited := s.visited
	n := len(visited)

	// Identify the sweep step at which the agent stood on its own initial
	// position (displacement zero) and read everybody's position off the
	// visited list: the slot visited at step j is step·j positions
	// clockwise of the pre-sweep slot.
	selfStep := -1
	for j, v := range visited {
		if ((v-0)%full+full)%full == 0 {
			selfStep = j
			break
		}
	}
	if selfStep < 0 {
		return engine.Abort(fmt.Errorf("%w: own initial position was not visited", ErrProtocol))
	}
	inv := 1
	if s.step == 2 {
		inv = (n + 1) / 2 // inverse of 2 modulo odd n
	}
	positions := make([]int64, n)
	for t := 0; t < n; t++ {
		j := (selfStep + t*inv) % n
		positions[t] = ((visited[j]-visited[selfStep])%full + full) % full
	}
	return s.k(&Result{
		IsLeader:           s.coord.IsLeader,
		N:                  n,
		Positions:          positions,
		RoundsCoordination: s.coordRounds,
		RoundsDiscovery:    f.RoundsUsed() - s.coordRounds,
	})
}

// LowerBoundRounds returns the worst-case lower bound of Lemma 6 on the
// number of rounds needed for location discovery.
func LowerBoundRounds(model ring.Model, n int) int {
	if model == ring.Perceptive {
		return n / 2
	}
	return n - 1
}
