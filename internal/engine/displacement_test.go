package engine

import (
	"math/rand"
	"testing"

	"ringsym/internal/geom"
	"ringsym/internal/ring"
)

// TestDisplacementTracksTruePosition verifies that the running sum of dist()
// observations (Agent.Displacement) always equals the arc from the agent's
// initial position to its current position, measured in its own clockwise
// direction — the invariant the location-discovery protocols rely on to map
// their reconstructed geometry back to their own starting point.
func TestDisplacementTracksTruePosition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		cfg := testConfig(ring.Perceptive, []bool{true, false, true, false, true})
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 5 + rng.Intn(10)
		seeds := make([]int64, nw.N())
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		type out struct {
			id   int
			disp int64
		}
		res, err := run(nw, func(a *Agent) *Proto[out] {
			local := rand.New(rand.NewSource(seeds[nw.IndexOfID(a.ID())]))
			return perRound(a, func(r int) (ring.Direction, bool) {
				if local.Intn(2) == 0 {
					return ring.Anticlockwise, r < rounds
				}
				return ring.Clockwise, r < rounds
			}, nil, func() out { return out{a.ID(), a.Displacement()} })
		})
		if err != nil {
			t.Fatal(err)
		}
		circle := geom.MustNew(cfg.Circ)
		initial := nw.InitialPositions()
		current := nw.CurrentPositions()
		for i, o := range res.Outputs {
			wantCW := 2 * circle.CWDist(initial[i], current[i])
			want := wantCW
			if !nw.ChiralityOf(i) && wantCW != 0 {
				want = nw.FullCircle() - wantCW
			}
			if o.disp != want {
				t.Fatalf("trial %d agent %d: displacement %d, want %d", trial, i, o.disp, want)
			}
		}
	}
}
