package perceptive

import (
	"context"
	"testing"

	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/engine/enginetest"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// TestNMoveSLocalLeaderHierarchy forces the hard path of Algorithm 4: when
// every agent shares the same orientation, the all-clockwise probe has
// rotation index 0, so the algorithm must build the local-leader hierarchy
// and execute selective families until exactly one leader flips.
func TestNMoveSLocalLeaderHierarchy(t *testing.T) {
	for _, n := range []int{6, 8, 12} {
		for seed := int64(0); seed < 3; seed++ {
			nw := newNetwork(t, netgen.Options{N: n, IDBound: 8 * n, Seed: seed})
			type out struct {
				dir    ring.Direction
				rounds int
			}
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				f := core.NewFrame(a)
				return NMoveSStep(f, 13, func(dir ring.Direction) (engine.Yield, engine.Cont) { return k(out{dir, f.RoundsUsed()}) })
			})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			dirs := make([]ring.Direction, nw.N())
			for i, o := range res.Outputs {
				// All agents share the global orientation and never flip
				// inside NMoveS, so the frame direction is objective.
				dirs[i] = o.dir
				if o.rounds <= 4 {
					t.Errorf("n=%d seed=%d: only %d rounds used; the hierarchy path was not exercised", n, seed, o.rounds)
				}
			}
			if r := ring.RotationIndex(nw.N(), dirs); r == 0 || r == nw.N()/2 {
				t.Fatalf("n=%d seed=%d: NMoveS returned a trivial rotation %d", n, seed, r)
			}
		}
	}
}

// TestNMoveSBalancedOrientations forces the other trivial starting point: a
// perfectly balanced orientation split, for which the all-clockwise probe has
// rotation index 0 as well (n/2 agents move each way).
func TestNMoveSBalancedOrientations(t *testing.T) {
	const n = 8
	cfg := netgen.MustGenerate(netgen.Options{N: n, IDBound: 64, Seed: 5})
	cfg.Chirality = make([]bool, n)
	for i := range cfg.Chirality {
		cfg.Chirality[i] = i%2 == 0 // exactly half the agents flipped
	}
	nw, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		dir     ring.Direction
		flipped bool
	}
	res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		f := core.NewFrame(a)
		return NMoveSStep(f, 2, func(dir ring.Direction) (engine.Yield, engine.Cont) { return k(out{dir, f.Flipped()}) })
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]ring.Direction, n)
	for i, o := range res.Outputs {
		dirs[i] = objectiveDir(o.dir, o.flipped, nw.ChiralityOf(i))
	}
	if r := ring.RotationIndex(n, dirs); r == 0 || r == n/2 {
		t.Fatalf("rotation %d is trivial", r)
	}
}
