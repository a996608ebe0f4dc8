// Package ring implements the analytic round engine for the bouncing-agents
// model of Gąsieniec, Jurdziński, Martin and Stachowiak (ICDCS 2015).
//
// The engine keeps the objective state of the ring (the fixed multiset of
// starting positions plus the cumulative rotation offset) and, for a given
// assignment of objective directions, produces the per-agent observables of
// the model:
//
//   - dist() — the clockwise arc between an agent's position at the beginning
//     and at the end of the round (Lemma 1: every agent is shifted by the
//     rotation index r = (nC−nA) mod n positions), and
//   - coll() — the arc to the agent's first collision in the round
//     (Proposition 4: half the aggregate gap to the nearest oppositely-moving
//     agent ahead), available in the perceptive model.
//
// All observable arcs are reported in half-ticks (2×ticks) so that the /2 of
// the first-collision rule stays exact in integer arithmetic.
//
// The package is purely computational: it has no notion of agent identifiers,
// chirality or protocols.  Package internal/engine builds the per-agent
// distributed runtime on top of it, and package internal/physics provides an
// independent event-driven simulator that FuzzRingMatchesPhysics checks this
// engine against.
package ring

import (
	"errors"
	"fmt"

	"ringsym/internal/geom"
)

// Direction is the action an agent takes at the beginning of a round.
// Directions handled by this package are objective (global frame); the
// translation from an agent's own sense of direction happens in
// internal/engine.
type Direction int8

const (
	// Idle means the agent starts the round without moving (lazy model only).
	Idle Direction = iota
	// Clockwise means the agent starts the round moving clockwise.
	Clockwise
	// Anticlockwise means the agent starts the round moving anticlockwise.
	Anticlockwise
)

// Opposite returns the reversed direction; Idle stays Idle.
func (d Direction) Opposite() Direction {
	switch d {
	case Clockwise:
		return Anticlockwise
	case Anticlockwise:
		return Clockwise
	default:
		return Idle
	}
}

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Idle:
		return "idle"
	case Clockwise:
		return "clockwise"
	case Anticlockwise:
		return "anticlockwise"
	default:
		return fmt.Sprintf("Direction(%d)", int8(d))
	}
}

// Model selects which variant of the movement model is in force.
type Model int8

const (
	// Basic: agents must move every round; the only observable is dist().
	Basic Model = iota + 1
	// Lazy: agents may additionally stay idle; the only observable is dist().
	Lazy
	// Perceptive: as Basic, plus the coll() observable.
	Perceptive
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case Basic:
		return "basic"
	case Lazy:
		return "lazy"
	case Perceptive:
		return "perceptive"
	default:
		return fmt.Sprintf("Model(%d)", int8(m))
	}
}

// Valid reports whether m is one of the defined models.
func (m Model) Valid() bool { return m == Basic || m == Lazy || m == Perceptive }

// AllowsIdle reports whether the model permits the Idle action.
func (m Model) AllowsIdle() bool { return m == Lazy }

// RevealsCollision reports whether the model exposes coll().
func (m Model) RevealsCollision() bool { return m == Perceptive }

// Errors returned by the engine.
var (
	ErrTooFewAgents      = errors.New("ring: the paper requires n > 4 agents")
	ErrBadPositions      = errors.New("ring: positions must be sorted clockwise, distinct and in range")
	ErrIdleNotAllowed    = errors.New("ring: idle is only allowed in the lazy model")
	ErrWrongDirCount     = errors.New("ring: direction slice length must equal the number of agents")
	ErrInvalidDirection  = errors.New("ring: invalid direction value")
	ErrInvalidModel      = errors.New("ring: invalid model")
	ErrAllowSmallMissing = errors.New("ring: fewer than 2 agents")
)

// Config describes the objective initial configuration of a ring network.
type Config struct {
	// Model is the movement model in force.
	Model Model
	// Circ is the circumference in ticks; it must be positive and even.
	Circ int64
	// Positions are the starting positions of the agents in ticks, sorted
	// strictly increasing (clockwise order).  Positions[i] belongs to the
	// agent with ring index i.
	Positions []int64
	// AllowSmall permits n <= 4 configurations, which the paper excludes but
	// which are useful for unit tests of the engine itself.
	AllowSmall bool
}

// State is the objective state of the ring between rounds: the fixed slot
// positions plus the cumulative rotation offset.  Agent with ring index i
// currently occupies slot (i+offset) mod n.
type State struct {
	model  Model
	circle geom.Circle
	slots  []int64 // fixed positions, sorted clockwise
	gaps   []int64 // gaps[s] = clockwise arc from slots[s] to slots[(s+1)%n]
	offset int     // cumulative rotation (in ring positions)
	rounds int     // number of rounds executed

	// Scratch buffer reused by ExecuteRoundInto so that executing a round
	// performs no allocations.  It is lazily sized and never shared between
	// states (Clone drops it).
	scratchDirBySlot []Direction
}

// Observation is the per-agent outcome of one round, in the objective frame.
// Arc quantities are in half-ticks.
type Observation struct {
	// DistCW is the clockwise arc from the agent's position at the start of
	// the round to its position at the end, in half-ticks.
	DistCW int64
	// Coll is the arc from the agent's starting position to its first
	// collision, in half-ticks, measured along its initial direction of
	// movement.  It is only meaningful when Collided is true and only
	// computed in the perceptive model.
	Coll int64
	// Collided reports whether the agent collided at all during the round
	// (perceptive model only).
	Collided bool
}

// Outcome is the result of executing one round.
type Outcome struct {
	// Rotation is the rotation index r = (nC − nA) mod n of the round.
	Rotation int
	// Agents holds the per-agent observations indexed by ring index.
	Agents []Observation
}

// New validates cfg and returns the initial state: it is Reset on a zero
// State.
func New(cfg Config) (*State, error) {
	s := new(State)
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset validates cfg and (re)initialises the state in place, reusing the
// slot, gap and executor scratch capacity of the previous configuration, if
// any, and leaves the state unchanged on error.  It exists for scenario
// sweeps (the campaign runner): retiring one small configuration per run and
// rebuilding the state object thousands of times per second is pure
// allocation overhead.
func (s *State) Reset(cfg Config) error {
	if !cfg.Model.Valid() {
		return ErrInvalidModel
	}
	circle, err := geom.New(cfg.Circ)
	if err != nil {
		return fmt.Errorf("ring: %w", err)
	}
	n := len(cfg.Positions)
	if n < 2 {
		return ErrAllowSmallMissing
	}
	if n <= 4 && !cfg.AllowSmall {
		return fmt.Errorf("%w: n=%d", ErrTooFewAgents, n)
	}
	if !geom.SortedDistinct(cfg.Circ, cfg.Positions) {
		return ErrBadPositions
	}
	s.model = cfg.Model
	s.circle = circle
	if cap(s.slots) < n {
		s.slots = make([]int64, n)
		s.gaps = make([]int64, n)
	}
	s.slots = s.slots[:n]
	copy(s.slots, cfg.Positions)
	s.gaps = s.gaps[:n]
	for i := 0; i < n; i++ {
		s.gaps[i] = circle.CWDist(s.slots[i], s.slots[(i+1)%n])
	}
	s.offset = 0
	s.rounds = 0
	return nil
}

// N returns the number of agents.
func (s *State) N() int { return len(s.slots) }

// Model returns the movement model in force.
func (s *State) Model() Model { return s.model }

// Circ returns the circumference in ticks.
func (s *State) Circ() int64 { return s.circle.Circ() }

// FullCircle returns the circumference expressed in observation units
// (half-ticks).
func (s *State) FullCircle() int64 { return 2 * s.circle.Circ() }

// Rounds returns the number of rounds executed so far.
func (s *State) Rounds() int { return s.rounds }

// Offset returns the cumulative rotation offset.
func (s *State) Offset() int { return s.offset }

// Slot returns the slot index currently occupied by the agent with ring
// index i.
func (s *State) Slot(i int) int { return (i + s.offset) % len(s.slots) }

// PositionOf returns the current position (ticks) of the agent with ring
// index i.
func (s *State) PositionOf(i int) int64 { return s.slots[s.Slot(i)] }

// SlotPositions returns a copy of the fixed slot positions (ticks), sorted
// clockwise.
func (s *State) SlotPositions() []int64 {
	out := make([]int64, len(s.slots))
	copy(out, s.slots)
	return out
}

// Gaps returns a copy of the clockwise gaps between consecutive slots.
func (s *State) Gaps() []int64 {
	out := make([]int64, len(s.gaps))
	copy(out, s.gaps)
	return out
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	cp := *s
	cp.slots = append([]int64(nil), s.slots...)
	cp.gaps = append([]int64(nil), s.gaps...)
	cp.scratchDirBySlot = nil
	return &cp
}

// RotationIndex returns (nC−nA) mod n for the given objective directions.
func RotationIndex(n int, dirs []Direction) int {
	nc, na := 0, 0
	for _, d := range dirs {
		switch d {
		case Clockwise:
			nc++
		case Anticlockwise:
			na++
		}
	}
	r := (nc - na) % n
	if r < 0 {
		r += n
	}
	return r
}

// rotation validates the direction slice against the model and returns the
// rotation index (nC−nA) mod n together with whether both moving directions
// occur, in one pass.  An invalid direction is reported by the first
// offending ring index.
func (s *State) rotation(dirs []Direction) (r int, opposed bool, err error) {
	n := len(s.slots)
	if len(dirs) != n {
		return 0, false, fmt.Errorf("%w: got %d, want %d", ErrWrongDirCount, len(dirs), n)
	}
	nc, na := 0, 0
	for i, d := range dirs {
		switch d {
		case Clockwise:
			nc++
		case Anticlockwise:
			na++
		case Idle:
			if !s.model.AllowsIdle() {
				return 0, false, fmt.Errorf("%w: agent with ring index %d", ErrIdleNotAllowed, i)
			}
		default:
			return 0, false, fmt.Errorf("%w: agent with ring index %d has direction %d", ErrInvalidDirection, i, int8(d))
		}
	}
	r = (nc - na) % n
	if r < 0 {
		r += n
	}
	return r, nc > 0 && na > 0, nil
}

// ExecuteRound executes one round in which the agent with ring index i starts
// moving in the objective direction dirs[i].  It advances the state and
// returns the per-agent observations.
func (s *State) ExecuteRound(dirs []Direction) (*Outcome, error) {
	out := &Outcome{}
	if err := s.ExecuteRoundInto(dirs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteRoundInto is ExecuteRound writing the observations into out, reusing
// out.Agents and the state's internal scratch buffers.  A caller that keeps
// the same Outcome across rounds executes rounds without any allocation.
func (s *State) ExecuteRoundInto(dirs []Direction, out *Outcome) error {
	r, opposed, err := s.rotation(dirs)
	if err != nil {
		return err
	}
	n := len(s.slots)
	out.Rotation = r
	if cap(out.Agents) < n {
		out.Agents = make([]Observation, n)
	} else {
		out.Agents = out.Agents[:n]
	}

	// dist(): by Lemma 1 agent i moves from slot (i+offset) to slot
	// (i+offset+r); its clockwise displacement is the arc between the two
	// slot positions.  The assignment also clears any stale Coll/Collided
	// from a previous round sharing the buffer, so a round without an
	// oppositely-moving pair is complete after this pass.  Indices stay below
	// 2n and position differences within (-C, C), so conditional corrections
	// replace the modulo operations on this per-round path.
	//
	// coll(): only in the perceptive model (which forbids idle agents), and
	// only when both directions occur; otherwise nobody collides.  The same
	// pass records the direction of each slot's occupant for it, and one
	// slot of each direction to start its walks from.
	coll := opposed && s.model.RevealsCollision()
	var dirBySlot []Direction
	if coll {
		if cap(s.scratchDirBySlot) < n {
			s.scratchDirBySlot = make([]Direction, n)
		}
		dirBySlot = s.scratchDirBySlot[:n]
	}
	anchorA, anchorC := 0, 0
	circ := s.circle.Circ()
	for i := 0; i < n; i++ {
		from := i + s.offset
		if from >= n {
			from -= n
		}
		to := from + r
		if to >= n {
			to -= n
		}
		arc := s.slots[to] - s.slots[from]
		if arc < 0 {
			arc += circ
		}
		out.Agents[i] = Observation{DistCW: 2 * arc}
		if coll {
			d := dirs[i]
			dirBySlot[from] = d
			if d == Anticlockwise {
				anchorA = from
			} else {
				anchorC = from
			}
		}
	}
	if coll {
		s.firstCollisions(dirBySlot, anchorA, anchorC, out)
	}

	s.offset = (s.offset + r) % n
	s.rounds++
	return nil
}

// firstCollisions fills Coll/Collided for every agent from the directions of
// the slots' occupants, at least one of each moving direction (anchorA is a
// slot moving anticlockwise, anchorC one moving clockwise) and no idle one.
// Proposition 4 applies: an agent moving clockwise first collides after half
// the aggregate clockwise gap to the nearest agent that started the round
// moving anticlockwise (and symmetrically).  Each direction is one walk
// around the ring carrying the running aggregate gap, written straight into
// the observations of the agents moving that way.  In half-ticks, half the
// aggregate gap is exactly the aggregate gap in ticks.
func (s *State) firstCollisions(dirBySlot []Direction, anchorA, anchorC int, out *Outcome) {
	n := len(s.slots)
	agents := out.Agents
	// The occupant of slot t has ring index t−offset, i.e. t+back mod n.
	back := n - s.offset

	// Clockwise movers: the aggregate gap from slot t to the nearest slot
	// strictly ahead whose occupant moves anticlockwise depends on the
	// clockwise successor's, so walk backwards from an anticlockwise slot.
	var agg int64
	next := anchorA
	for k := 0; k < n; k++ {
		t := next - 1
		if t < 0 {
			t += n
		}
		if dirBySlot[next] == Anticlockwise {
			agg = s.gaps[t]
		} else {
			agg += s.gaps[t]
		}
		if dirBySlot[t] == Clockwise {
			i := t + back
			if i >= n {
				i -= n
			}
			agents[i].Coll, agents[i].Collided = agg, true
		}
		next = t
	}
	// Anticlockwise movers, symmetrically: walk forwards from a clockwise
	// slot.
	prev := anchorC
	for k := 0; k < n; k++ {
		t := prev + 1
		if t == n {
			t = 0
		}
		if dirBySlot[prev] == Clockwise {
			agg = s.gaps[prev]
		} else {
			agg += s.gaps[prev]
		}
		if dirBySlot[t] == Anticlockwise {
			i := t + back
			if i >= n {
				i -= n
			}
			agents[i].Coll, agents[i].Collided = agg, true
		}
		prev = t
	}
}
