package ring

import (
	"fmt"
	"sort"
)

// This file implements leap execution: the closed form of a constant-direction
// stretch of rounds.  When every agent keeps the same objective direction for
// k consecutive rounds, the rotation index r is the same in every round
// (Lemma 1), the slot multiset never changes and the cyclic order of the
// agents is preserved, so
//
//   - after j rounds the agent with ring index i occupies slot
//     (i + offset + j·r) mod n, and its round-j dist() is the fixed arc
//     between two slots, and
//   - the ring distance from an agent to its nearest oppositely-moving agent
//     (Proposition 4) is a constant number of ring positions for the whole
//     stretch, so its round-j coll() is again an arc between two slots.
//
// A k-round stretch therefore costs O(n + k) once instead of k·O(n): one O(n)
// pass fixes the rotation index and the collision spans, and every per-round
// observation is an O(1) lookup against the fixed slot table.

// ErrBadRoundCount is returned when a leap is requested with k < 1.
var ErrBadRoundCount = fmt.Errorf("ring: leap round count must be positive")

// LeapOutcome is the result of executing a k-round constant-direction stretch
// with ExecuteRounds.  It stores the closed form, not the k×n observation
// matrix: per-round observations are derived on demand by Observe.  The
// outcome references the state's immutable slot table and stays valid after
// further rounds execute on the state.
type LeapOutcome struct {
	// Rotation is the rotation index r = (nC − nA) mod n, identical in every
	// round of the stretch.
	Rotation int
	// K is the number of rounds the stretch executed.
	K int

	offset0 int   // rotation offset at the start of the stretch
	circ    int64 // circumference in ticks
	slots   []int64
	coll    bool        // perceptive model with both moving directions: agents collide
	dirs    []Direction // objective directions by ring index (copied when coll)
	span    []int       // when coll: ring positions to the nearest opposite mover along the agent's direction
}

// ExecuteRounds executes k consecutive rounds in which the agent with ring
// index i starts every round moving in the objective direction dirs[i].  It
// advances the state by all k rounds and returns the closed-form outcome.
func (s *State) ExecuteRounds(dirs []Direction, k int) (*LeapOutcome, error) {
	out := &LeapOutcome{}
	if err := s.ExecuteRoundsInto(dirs, k, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteRoundsInto is ExecuteRounds writing into out, reusing its internal
// buffers.  A caller that keeps the same LeapOutcome across stretches
// executes them without allocation.
func (s *State) ExecuteRoundsInto(dirs []Direction, k int, out *LeapOutcome) error {
	if k < 1 {
		return fmt.Errorf("%w: got %d", ErrBadRoundCount, k)
	}
	r, opposed, err := s.rotation(dirs)
	if err != nil {
		return err
	}
	n := len(s.slots)

	out.Rotation = r
	out.K = k
	out.offset0 = s.offset
	out.circ = s.circle.Circ()
	out.slots = s.slots
	// Without an oppositely-moving pair nobody collides, in any model.
	out.coll = opposed && s.model.RevealsCollision()
	if out.coll {
		if cap(out.dirs) < n {
			out.dirs = make([]Direction, n)
			out.span = make([]int, n)
		}
		out.dirs = out.dirs[:n]
		copy(out.dirs, dirs)
		out.span = out.span[:n]
		spans(out.span, dirs)
	}

	s.offset = int((int64(s.offset) + int64(k%n)*int64(r)) % int64(n))
	s.rounds += k
	return nil
}

// spans computes, for every ring index i, the number of ring positions from
// agent i along its direction to the nearest agent moving the other way.
// dirs holds at least one agent of each moving direction and no idle one.
// The cyclic agent order is fixed, so this is a property of the direction
// assignment alone.  O(n): one walk per direction, carrying the running
// count, as in (*State).firstCollisions.
func spans(res []int, dirs []Direction) {
	n := len(dirs)
	anchorA, anchorC := 0, 0
	for i, d := range dirs {
		if d == Anticlockwise {
			anchorA = i
		} else {
			anchorC = i
		}
	}
	// Clockwise movers count ahead, so walk backwards from an anticlockwise
	// mover.
	m := 0
	next := anchorA
	for k := 0; k < n; k++ {
		i := next - 1
		if i < 0 {
			i += n
		}
		if dirs[next] == Anticlockwise {
			m = 1
		} else {
			m++
		}
		if dirs[i] == Clockwise {
			res[i] = m
		}
		next = i
	}
	// Anticlockwise movers count behind: walk forwards from a clockwise one.
	prev := anchorC
	for k := 0; k < n; k++ {
		i := prev + 1
		if i == n {
			i = 0
		}
		if dirs[prev] == Clockwise {
			m = 1
		} else {
			m++
		}
		if dirs[i] == Anticlockwise {
			res[i] = m
		}
		prev = i
	}
}

// slotAt returns the slot occupied by the agent with ring index i after j
// rounds of the stretch.
func (o *LeapOutcome) slotAt(i, j int) int {
	n := len(o.slots)
	return int((int64(i) + int64(o.offset0) + int64(j%n)*int64(o.Rotation)) % int64(n))
}

// arcCW returns the clockwise arc (ticks) from slot a to slot b.
func (o *LeapOutcome) arcCW(a, b int) int64 {
	arc := o.slots[b] - o.slots[a]
	if arc < 0 {
		arc += o.circ
	}
	return arc
}

// Observe returns the observation of the agent with ring index i in round j
// (0-based) of the stretch, identical to what the j-th sequential
// ExecuteRound would have reported.  O(1).
func (o *LeapOutcome) Observe(i, j int) Observation {
	return o.observeAt(i, o.slotAt(i, j))
}

// Trace writes the observations of the agent with ring index i in the first
// len(dst) rounds of the stretch into dst: Observe(i, j) for every j, with
// the agent's slot advanced by the rotation index from round to round.
func (o *LeapOutcome) Trace(i int, dst []Observation) {
	n := len(o.slots)
	a := o.slotAt(i, 0)
	for j := range dst {
		dst[j] = o.observeAt(i, a)
		a += o.Rotation
		if a >= n {
			a -= n
		}
	}
}

// observeAt is the round observation of the agent with ring index i when it
// starts the round in slot a.
func (o *LeapOutcome) observeAt(i, a int) Observation {
	n := len(o.slots)
	b := a + o.Rotation
	if b >= n {
		b -= n
	}
	obs := Observation{DistCW: 2 * o.arcCW(a, b)}
	if o.coll {
		m := o.span[i]
		obs.Collided = true
		if o.dirs[i] == Clockwise {
			t := a + m
			if t >= n {
				t -= n
			}
			// Half the aggregate gap, in half-ticks: the aggregate gap in
			// ticks (as in firstCollisions).
			obs.Coll = o.arcCW(a, t)
		} else {
			t := a - m
			if t < 0 {
				t += n
			}
			obs.Coll = o.arcCW(t, a)
		}
	}
	return obs
}

// Displacement returns the cumulative clockwise displacement of the agent
// with ring index i over the first j rounds of the stretch, in half-ticks
// modulo the full circle.  The per-round arcs telescope, so this is a single
// arc between two slots.  O(1).
func (o *LeapOutcome) Displacement(i, j int) int64 {
	return 2 * o.arcCW(o.slotAt(i, 0), o.slotAt(i, j))
}

// StopRound solves the early-stop condition of a constant-direction stretch
// in closed form: the smallest j in [1, k] after which an agent currently
// occupying slot a0, with cumulative clockwise displacement disp0 (half-ticks
// modulo the full circle), reaches cumulative displacement target under
// rotation index r per round.  It returns 0 when no round in the window
// qualifies.  Because slot positions are distinct, the displacement condition
// pins a unique slot, and the round follows from j·r ≡ m (mod n).  O(log n).
func (s *State) StopRound(a0, r int, disp0, target int64, k int) int {
	n := len(s.slots)
	circ := s.circle.Circ()
	delta := (target - disp0) % (2 * circ)
	if delta < 0 {
		delta += 2 * circ
	}
	if delta%2 != 0 {
		return 0
	}
	pos := s.slots[a0] + delta/2
	if pos >= circ {
		pos -= circ
	}
	x := sort.Search(n, func(i int) bool { return s.slots[i] >= pos })
	if x == n || s.slots[x] != pos {
		return 0
	}
	m := x - a0
	if m < 0 {
		m += n
	}
	g := gcd(r, n)
	if m%g != 0 {
		return 0
	}
	period := n / g
	j := 1
	if period > 1 {
		j = int(int64(m/g) * int64(modInverse(r/g, period)) % int64(period))
		if j == 0 {
			j = period
		}
	}
	if j > k {
		return 0
	}
	return j
}

// gcd returns the greatest common divisor; gcd(0, n) = n.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInverse returns the inverse of a modulo m for coprime a, m >= 2.
func modInverse(a, m int) int {
	// Extended Euclid on (a mod m, m).
	t, newT := 0, 1
	r, newR := m, a%m
	for newR != 0 {
		q := r / newR
		t, newT = newT, t-q*newT
		r, newR = newR, r-q*newR
	}
	if t < 0 {
		t += m
	}
	return t
}
