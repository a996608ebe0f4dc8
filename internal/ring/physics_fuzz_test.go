package ring_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ringsym/internal/physics"
	"ringsym/internal/ring"
)

// FuzzRingMatchesPhysics checks the closed forms of the analytic kernel
// against the event-driven simulator of internal/physics, which tracks every
// collision instead of using Lemma 1 and Proposition 4.  A generated ring (n
// from 5 to 16 agents at distinct even positions, any of the three models)
// executes a few single rounds, whose directions come from plan, and then a
// constant-direction leap of 1 to 6 rounds; each round is also simulated
// from the simulator's own positions.  Per round and agent:
//
//   - DistCW is twice the arc the simulator moves the agent;
//   - in the perceptive model Collided is whether the agent collides at all,
//     and Coll is twice the path it travels before its first collision;
//     other models report no collision;
//   - the leap's Observe(i, j) and Trace are round j's observation, its
//     Displacement the total arc, and PositionOf the simulator's final
//     position.
//
// The seed corpus in testdata/fuzz holds one ring per model, one round in
// which every agent moves the same way, and one lazy round with many idle
// agents.
func FuzzRingMatchesPhysics(f *testing.F) {
	models := []ring.Model{ring.Basic, ring.Lazy, ring.Perceptive}
	f.Fuzz(func(t *testing.T, model, nSel uint8, posSeed int64, leapK uint8, plan []byte) {
		m := models[int(model)%len(models)]
		n := 5 + int(nSel)%12
		rng := rand.New(rand.NewSource(posSeed))
		half := n + rng.Intn(4*n+40) // circumference/2, so positions and half-gaps are integers
		picks := rng.Perm(half)[:n]
		slices.Sort(picks)
		circ := int64(2 * half)
		pos := make([]int64, n)
		for i, p := range picks {
			pos[i] = int64(2 * p)
		}
		st, err := ring.New(ring.Config{Model: m, Circ: circ, Positions: pos})
		if err != nil {
			t.Fatal(err)
		}

		rounds := min(max(len(plan)/n, 1), 6)
		var out ring.Outcome
		for r := 0; r < rounds; r++ {
			dirs := planDirs(m, plan, r*n, n)
			if err := st.ExecuteRoundInto(dirs, &out); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			final, coll := physicsRound(t, circ, pos, dirs)
			for i := 0; i < n; i++ {
				checkObservation(t, m, circ, pos[i], final[i], coll[i], out.Agents[i], "round", r, i)
			}
			pos = final
			checkPositions(t, st, pos, "round", r)
		}

		k := 1 + int(leapK)%6
		dirs := planDirs(m, plan, 0, n)
		var leap ring.LeapOutcome
		if err := st.ExecuteRoundsInto(dirs, k, &leap); err != nil {
			t.Fatalf("leap: %v", err)
		}
		start := pos
		traces := make([][]ring.Observation, n)
		for i := range traces {
			traces[i] = make([]ring.Observation, k)
			leap.Trace(i, traces[i])
		}
		for j := 0; j < k; j++ {
			final, coll := physicsRound(t, circ, pos, dirs)
			for i := 0; i < n; i++ {
				obs := leap.Observe(i, j)
				checkObservation(t, m, circ, pos[i], final[i], coll[i], obs, "leap round", j, i)
				if traces[i][j] != obs {
					t.Fatalf("leap round %d, agent %d: Trace %+v, Observe %+v", j, i, traces[i][j], obs)
				}
			}
			pos = final
		}
		for i := 0; i < n; i++ {
			if got, want := leap.Displacement(i, k), 2*cwArc(circ, start[i], pos[i]); got != want {
				t.Fatalf("leap of %d rounds, agent %d: Displacement %d, simulator %d", k, i, got, want)
			}
		}
		checkPositions(t, st, pos, "leap of rounds", k)
	})
}

// planDirs reads n directions from plan starting at off, cycling through it
// (all clockwise when plan is empty): in the lazy model a byte's value mod 3
// is idle, clockwise or anticlockwise, elsewhere its parity is clockwise or
// anticlockwise.
func planDirs(m ring.Model, plan []byte, off, n int) []ring.Direction {
	dirs := make([]ring.Direction, n)
	for i := range dirs {
		var b byte
		if len(plan) > 0 {
			b = plan[(off+i)%len(plan)]
		}
		switch {
		case m.AllowsIdle() && b%3 == 0:
			dirs[i] = ring.Idle
		case m.AllowsIdle() && b%3 == 1, !m.AllowsIdle() && b%2 == 0:
			dirs[i] = ring.Clockwise
		default:
			dirs[i] = ring.Anticlockwise
		}
	}
	return dirs
}

// physicsRound simulates one round with agent i at pos[i] starting in
// direction dirs[i], and returns every agent's final position and the path it
// travelled before its first collision (-1 for none).  The simulator wants
// its positions sorted, so the agents are passed from the leftmost one on,
// which keeps the cyclic order of ring indices.
func physicsRound(t *testing.T, circ int64, pos []int64, dirs []ring.Direction) ([]int64, []float64) {
	t.Helper()
	n := len(pos)
	first := 0
	for i := range pos {
		if pos[i] < pos[first] {
			first = i
		}
	}
	in := make([]float64, n)
	inDirs := make([]ring.Direction, n)
	for j := 0; j < n; j++ {
		in[j], inDirs[j] = float64(pos[(first+j)%n]), dirs[(first+j)%n]
	}
	res, err := physics.SimulateRound(float64(circ), in, inDirs)
	if err != nil {
		t.Fatal(err)
	}
	final := make([]int64, n)
	coll := make([]float64, n)
	for j := 0; j < n; j++ {
		i := (first + j) % n
		p := math.Round(res.Final[j])
		if math.Abs(p-res.Final[j]) > 1e-6 {
			t.Fatalf("simulator left agent %d at %v, off the integer grid", i, res.Final[j])
		}
		final[i] = int64(p) % circ
		coll[i] = res.FirstColl[j]
	}
	return final, coll
}

// checkObservation compares one observation of agent i with the simulated
// round that moved it from `from` to `to` with first-collision path coll.
func checkObservation(t *testing.T, m ring.Model, circ, from, to int64, coll float64, obs ring.Observation, what string, r, i int) {
	t.Helper()
	if want := 2 * cwArc(circ, from, to); obs.DistCW != want {
		t.Fatalf("%s %d, agent %d: DistCW %d, simulator %d", what, r, i, obs.DistCW, want)
	}
	if !m.RevealsCollision() {
		if obs.Collided {
			t.Fatalf("%s %d, agent %d: collision reported in the %v model", what, r, i, m)
		}
		return
	}
	if obs.Collided != (coll >= 0) {
		t.Fatalf("%s %d, agent %d: Collided %v, simulator first collision %v", what, r, i, obs.Collided, coll)
	}
	if obs.Collided && math.Abs(float64(obs.Coll)-2*coll) > 1e-6 {
		t.Fatalf("%s %d, agent %d: Coll %d, simulator 2×%v", what, r, i, obs.Coll, coll)
	}
}

// checkPositions compares the state's agent positions with the simulator's.
func checkPositions(t *testing.T, st *ring.State, pos []int64, what string, r int) {
	t.Helper()
	for i, p := range pos {
		if got := st.PositionOf(i); got != p {
			t.Fatalf("after %s %d, agent %d: position %d, simulator %d", what, r, i, got, p)
		}
	}
}

// cwArc is the clockwise arc from a to b in ticks.
func cwArc(circ, a, b int64) int64 {
	return ((b-a)%circ + circ) % circ
}
