// Package discovery provides the location-discovery front-ends of the paper
// (Section III-D and Section V-C), the impossibility construction of Lemma 5
// and the lower bounds of Lemma 6.
//
// Location discovery asks every agent to determine the initial position of
// every other agent relative to its own initial position.  The package
// dispatches on the model and the parity of n:
//
//   - lazy model (any n) and basic/perceptive model with odd n: solve the
//     coordination problems, then sweep the ring with a constant rotation
//     index (Lemma 16), n + o(n) rounds;
//   - perceptive model with even n: the Section V pipeline
//     (internal/perceptive), n/2 + o(n) rounds;
//   - basic model with even n: impossible (Lemma 5).
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

// Options configures location discovery.
type Options struct {
	// CommonSense promises that all agents already share a sense of
	// direction (Table II setting); coordination then uses Lemma 13.
	CommonSense bool
	// Seed drives the pseudo-random schedules.
	Seed int64
}

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

// LocationDiscovery solves location discovery in the given agent's model,
// choosing the appropriate algorithm (see the package comment).
func LocationDiscovery(a *engine.Agent, opts Options) (*Result, error) {
	return engine.RunMachine(a, LocationDiscoveryMachine(a, opts))
}

// LocationDiscoveryMachine builds the model-dispatching discovery pipeline as
// a resumable machine for the engine's v3 scheduler; LocationDiscovery drives
// the same machine through the blocking dispatcher on the v1/v2 runtimes.
func LocationDiscoveryMachine(a *engine.Agent, opts Options) *engine.Proto[*Result] {
	return engine.NewProto(func(done func(*Result, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return LocationDiscoveryStep(a, opts, func(r *Result) (engine.Yield, engine.Cont) {
			return done(r, nil)
		})
	})
}

// LocationDiscoveryStep is the machine form of LocationDiscovery.
func LocationDiscoveryStep(a *engine.Agent, opts Options, k func(*Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	even := a.NParity() == engine.ParityEven
	switch a.Model() {
	case ring.Basic:
		if even {
			return engine.Abort(ErrNotSolvable)
		}
		return sweepDiscoveryStep(a, opts, 2, k)
	case ring.Lazy:
		return sweepDiscoveryStep(a, opts, 1, k)
	case ring.Perceptive:
		if even {
			return perceptiveDiscoveryStep(a, opts, k)
		}
		return sweepDiscoveryStep(a, opts, 2, k)
	default:
		return engine.Abort(fmt.Errorf("%w: unknown model %v", ErrProtocol, a.Model()))
	}
}

// perceptiveDiscoveryStep adapts the Section V pipeline to the package's
// Result.
func perceptiveDiscoveryStep(a *engine.Agent, opts Options, k func(*Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return perceptive.LocationDiscoveryStep(a, perceptive.Options{Seed: opts.Seed}, func(r *perceptive.DiscoveryResult) (engine.Yield, engine.Cont) {
		return k(&Result{
			IsLeader:           r.IsLeader,
			N:                  r.N,
			Positions:          r.Positions,
			RoundsCoordination: r.RoundsCoordination + r.RoundsRingDist,
			RoundsDiscovery:    r.RoundsDistances,
		})
	})
}

// sweepDiscoveryStep implements Lemma 16: after the coordination problems are
// solved, the agents repeat a round with constant rotation index `step` (1 in
// the lazy model: only the leader moves; 2 in the basic model with odd n: the
// leader moves clockwise and everybody else anticlockwise).  Each round every
// agent advances by `step` ring positions and measures the arc it traversed;
// after exactly n rounds it is back at its pre-sweep slot, has visited every
// slot (gcd(step, n) = 1) and therefore knows every initial position as well
// as n itself.
func sweepDiscoveryStep(a *engine.Agent, opts Options, step int, k func(*Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := &sweep{k: k, step: step}
	return core.CoordinateStep(a, core.Options{CommonSense: opts.CommonSense, Seed: opts.Seed}, s.start)
}

// maxVisitedPrealloc caps the sweep's up-front allocation when the
// identifier bound is far above n.
const maxVisitedPrealloc = 1024

// sweep is the state of one sweepDiscoveryStep call.
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
	onTraceFn   func([]engine.Observation) (engine.Yield, engine.Cont)
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
	// n never exceeds the identifier bound, so visited (n entries) rarely
	// outgrows its first allocation.
	s.visited = make([]int64, 1, min(f.IDBound(), maxVisitedPrealloc)+1)
	s.visited[0] = s.begin
	// The sweep executes as leap batches of doubling size: the agent does
	// not know n, so it asks for exponentially growing constant-direction
	// batches and scans each returned displacement trace for the round at
	// which it is back at its pre-sweep position.  The engine solves that
	// stop condition in closed form (Frame.RoundUntil), so the batch ends
	// exactly at the return round — the same n rounds the per-round loop
	// consumed — in O(log n) scheduler visits instead of n.
	//
	// Runaway guard: positions are distinct integer ticks, so n never
	// exceeds the circumference in ticks (full is in half-ticks, twice
	// that).  The bound is kept in int64: converting the circumference to
	// int would truncate on 32-bit platforms.
	s.circTicks = s.full / 2
	s.onTraceFn = s.onTrace
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
