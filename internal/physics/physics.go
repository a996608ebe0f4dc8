// Package physics is an event-driven continuous simulator of the bouncing
// agents.  It tracks every collision explicitly instead of using the closed
// forms of Lemma 1 / Proposition 4, which makes it an independent oracle:
// internal/ring's FuzzRingMatchesPhysics checks the analytic engine's
// single rounds and leaps (dist(), and coll() in the perceptive model)
// against SimulateRound, and the trajectory output is used by examples that
// visualise the dynamics.
//
// Positions and times are float64; the package is not used by the protocol
// implementations (those run on the exact integer engine).
package physics

import (
	"errors"
	"fmt"
	"math"

	"ringsym/internal/ring"
)

// Errors returned by Simulate.
var (
	ErrBadInput      = errors.New("physics: invalid input")
	ErrTooManyEvents = errors.New("physics: event budget exceeded (degenerate configuration?)")
)

// Event records one collision between two agents.
type Event struct {
	// Time is the simulation time of the collision, in ticks.
	Time float64
	// Pos is the position on the circle where the collision happened.
	Pos float64
	// A and B are the ring indices of the colliding agents (A is the
	// anticlockwise one of the adjacent pair).
	A, B int
}

// Result holds the outcome of a simulation.
type Result struct {
	// Final positions by ring index.
	Final []float64
	// FirstColl is the path length travelled by each agent before its first
	// collision; -1 when the agent never collided.
	FirstColl []float64
	// Collisions counts the collisions of each agent.
	Collisions []int
	// Events lists every collision in time order.
	Events []Event
}

// Collided reports whether agent i collided at least once.
func (r *Result) Collided(i int) bool { return r.Collisions[i] > 0 }

const timeEps = 1e-9

// Simulate runs the continuous dynamics for the given duration.  positions
// must be sorted strictly clockwise within [0, circ); dirs gives the initial
// movement of every agent (Idle allowed, with the momentum-transfer rule of
// the lazy model).  Speed is one tick per unit time, so a full round of the
// paper corresponds to duration == circ.
func Simulate(circ float64, positions []float64, dirs []ring.Direction, duration float64) (*Result, error) {
	n := len(positions)
	if n < 2 || len(dirs) != n || circ <= 0 || duration < 0 {
		return nil, fmt.Errorf("%w: n=%d dirs=%d circ=%v duration=%v", ErrBadInput, n, len(dirs), circ, duration)
	}
	for i, p := range positions {
		if p < 0 || p >= circ {
			return nil, fmt.Errorf("%w: position %v out of range", ErrBadInput, p)
		}
		if i > 0 && positions[i-1] >= p {
			return nil, fmt.Errorf("%w: positions must be strictly increasing", ErrBadInput)
		}
	}

	pos := append([]float64(nil), positions...)
	vel := make([]float64, n)
	for i, d := range dirs {
		switch d {
		case ring.Clockwise:
			vel[i] = 1
		case ring.Anticlockwise:
			vel[i] = -1
		case ring.Idle:
			vel[i] = 0
		default:
			return nil, fmt.Errorf("%w: direction %v", ErrBadInput, d)
		}
	}

	res := &Result{
		Final:      pos,
		FirstColl:  make([]float64, n),
		Collisions: make([]int, n),
	}
	path := make([]float64, n)
	for i := range res.FirstColl {
		res.FirstColl[i] = -1
	}

	// gap[i] is the clockwise arc from agent i to agent (i+1)%n.  Because
	// agents never overpass, adjacency in ring-index order is invariant, and
	// maintaining the gaps as explicit state avoids the 0-versus-circ
	// ambiguity that arises when two agents momentarily coincide.
	gap := make([]float64, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		g := math.Mod(pos[j]-pos[i], circ)
		if g < 0 {
			g += circ
		}
		if n == 2 && i == 1 {
			g = circ - gap[0]
		}
		gap[i] = g
	}

	advanceAll := func(dt float64) {
		if dt <= 0 {
			return
		}
		advance(pos, path, vel, dt, circ)
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			gap[i] += (vel[j] - vel[i]) * dt
			if gap[i] < 0 {
				gap[i] = 0
			}
		}
	}

	now := 0.0
	maxEvents := 16 * n * n * (int(duration/circ) + 2)
	for events := 0; ; events++ {
		if events > maxEvents {
			return nil, ErrTooManyEvents
		}
		// Earliest adjacent-pair collision.
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			approach := vel[i] - vel[j]
			if approach <= 0 {
				continue
			}
			t := gap[i] / approach
			if t < best {
				best = t
			}
		}
		remaining := duration - now
		if best > remaining {
			advanceAll(remaining)
			now = duration
			break
		}
		advanceAll(best)
		now += best
		// Process every pair that is in contact and approaching at this
		// instant.
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			if gap[i] > timeEps {
				continue
			}
			if vel[i]-vel[j] <= 0 {
				continue
			}
			// Exchange velocities: covers both the head-on bounce and the
			// momentum transfer onto an idle agent.
			vel[i], vel[j] = vel[j], vel[i]
			gap[i] = 0
			for _, a := range []int{i, j} {
				if res.FirstColl[a] < 0 {
					res.FirstColl[a] = path[a]
				}
				res.Collisions[a]++
			}
			res.Events = append(res.Events, Event{Time: now, Pos: pos[i], A: i, B: j})
		}
	}
	for i := range pos {
		pos[i] = math.Mod(pos[i], circ)
		if pos[i] < 0 {
			pos[i] += circ
		}
	}
	return res, nil
}

// advance moves every agent for dt time units and accumulates path length.
func advance(pos, path, vel []float64, dt, circ float64) {
	if dt <= 0 {
		return
	}
	for i := range pos {
		pos[i] += vel[i] * dt
		if vel[i] != 0 {
			path[i] += dt
		}
		for pos[i] >= circ {
			pos[i] -= circ
		}
		for pos[i] < 0 {
			pos[i] += circ
		}
	}
}

// SimulateRound is a convenience wrapper running exactly one round
// (duration = circ).
func SimulateRound(circ float64, positions []float64, dirs []ring.Direction) (*Result, error) {
	return Simulate(circ, positions, dirs, circ)
}
