package perceptive

import (
	"context"
	"errors"
	"testing"

	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/engine/enginetest"
	"ringsym/internal/netgen"
	"ringsym/internal/rcomm"
	"ringsym/internal/ring"
)

func newNetwork(t *testing.T, opt netgen.Options) *engine.Network {
	t.Helper()
	opt.Model = ring.Perceptive
	cfg, err := netgen.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func objectiveDir(dir ring.Direction, flipped, chirality bool) ring.Direction {
	if dir == ring.Idle {
		return dir
	}
	if flipped {
		dir = dir.Opposite()
	}
	if !chirality {
		dir = dir.Opposite()
	}
	return dir
}

func TestNMoveSRequiresPerceptive(t *testing.T) {
	cfg := netgen.MustGenerate(netgen.Options{N: 6, Seed: 1})
	cfg.Model = ring.Basic
	nw, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return NMoveSStep(core.NewFrame(a), 1, k)
	})
	if !errors.Is(err, ErrNeedPerceptive) {
		t.Fatalf("got %v, want ErrNeedPerceptive", err)
	}
}

// TestNMoveS verifies Algorithm 4 on even-size networks with adversarially
// balanced orientations (the hard case of the basic model).
func TestNMoveS(t *testing.T) {
	for _, n := range []int{6, 8, 12, 16} {
		for seed := int64(0); seed < 3; seed++ {
			nw := newNetwork(t, netgen.Options{
				N: n, IDBound: 8 * n, Seed: seed,
				MixedChirality: true, ForceSplitChirality: true,
			})
			type out struct {
				dir     ring.Direction
				flipped bool
			}
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				f := core.NewFrame(a)
				return NMoveSStep(f, 7, func(dir ring.Direction) (engine.Yield, engine.Cont) { return k(out{dir, f.Flipped()}) })
			})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			dirs := make([]ring.Direction, nw.N())
			for i, o := range res.Outputs {
				dirs[i] = objectiveDir(o.dir, o.flipped, nw.ChiralityOf(i))
			}
			if r := ring.RotationIndex(nw.N(), dirs); r == 0 || r == nw.N()/2 {
				t.Fatalf("n=%d seed=%d: NMoveS produced a trivial rotation %d", n, seed, r)
			}
		}
	}
}

// TestCoordinate verifies leader uniqueness and direction agreement through
// the perceptive pipeline.
func TestCoordinate(t *testing.T) {
	for _, n := range []int{6, 9, 10} {
		nw := newNetwork(t, netgen.Options{
			N: n, IDBound: 64, Seed: int64(n), MixedChirality: true, ForceSplitChirality: true,
		})
		type out struct {
			leader  bool
			flipped bool
		}
		res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return CoordinateStep(a, 5, func(c *core.Coordination) (engine.Yield, engine.Cont) {
				return k(out{c.IsLeader, c.Frame.Flipped()})
			})
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		leaders := 0
		var ref bool
		for i, o := range res.Outputs {
			if o.leader {
				leaders++
			}
			frameIsGlobal := nw.ChiralityOf(i) != o.flipped
			if i == 0 {
				ref = frameIsGlobal
			} else if frameIsGlobal != ref {
				t.Errorf("n=%d: agent %d disagrees on direction", n, i)
			}
		}
		if leaders != 1 {
			t.Errorf("n=%d: %d leaders", n, leaders)
		}
	}
}

// TestRingDistLabels verifies Algorithm 5: labels are the clockwise ring
// distances from the leader (in the agreed direction), and BroadcastSizeStep
// delivers n to everybody.
func TestRingDistLabels(t *testing.T) {
	for _, n := range []int{6, 8, 11, 16} {
		nw := newNetwork(t, netgen.Options{
			N: n, IDBound: 128, Seed: int64(100 + n), MixedChirality: true, ForceSplitChirality: true,
		})
		type out struct {
			leader  bool
			label   int
			size    int
			flipped bool
		}
		res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return CoordinateStep(a, 9, func(c *core.Coordination) (engine.Yield, engine.Cont) {
				return rcomm.EstablishStep(c.Frame, func(link *rcomm.Link) (engine.Yield, engine.Cont) {
					return RingDistStep(link, c.IsLeader, func(label int, isLast bool) (engine.Yield, engine.Cont) {
						return BroadcastSizeStep(c.Frame, isLast, label, func(size int) (engine.Yield, engine.Cont) {
							return k(out{c.IsLeader, label, size, c.Frame.Flipped()})
						})
					})
				})
			})
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		leaderIdx := -1
		for i, o := range res.Outputs {
			if o.leader {
				leaderIdx = i
			}
			if o.size != n {
				t.Errorf("n=%d: agent %d learned size %d", n, i, o.size)
			}
		}
		if leaderIdx < 0 {
			t.Fatalf("n=%d: no leader", n)
		}
		frameIsGlobal := nw.ChiralityOf(leaderIdx) != res.Outputs[leaderIdx].flipped
		for i, o := range res.Outputs {
			var want int
			if frameIsGlobal {
				want = 1 + ((i-leaderIdx)%n+n)%n
			} else {
				want = 1 + ((leaderIdx-i)%n+n)%n
			}
			if o.label != want {
				t.Errorf("n=%d: agent %d label %d, want %d", n, i, o.label, want)
			}
		}
	}
}

// TestLocationDiscovery verifies Theorem 42 end to end: every agent
// reconstructs the initial positions of all agents relative to its own, and
// the Distances stage costs about n/2 rounds.
func TestLocationDiscovery(t *testing.T) {
	for _, n := range []int{6, 8, 12, 14} {
		for seed := int64(0); seed < 2; seed++ {
			nw := newNetwork(t, netgen.Options{
				N: n, IDBound: 128, Seed: seed*31 + int64(n), MixedChirality: true, ForceSplitChirality: true,
			})
			run, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(*DiscoveryResult) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				return LocationDiscoveryStep(a, 3, k)
			})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			pos := nw.InitialPositions()
			circ := nw.Circ()
			leaders := 0
			for i, r := range run.Outputs {
				if r.IsLeader {
					leaders++
				}
				if r.N != n {
					t.Fatalf("n=%d agent %d: discovered N = %d", n, i, r.N)
				}
				if len(r.Positions) != n || r.Positions[0] != 0 {
					t.Fatalf("n=%d agent %d: bad positions %v", n, i, r.Positions)
				}
				// The agent reports positions in its agreed frame; accept
				// whichever global orientation matches, but it must be the
				// same orientation for every agent.
				cwOK, ccwOK := true, true
				for tDist := 0; tDist < n; tDist++ {
					cwWant := 2 * (((pos[(i+tDist)%n]-pos[i])%circ + circ) % circ)
					ccwWant := 2 * (((pos[i]-pos[((i-tDist)%n+n)%n])%circ + circ) % circ)
					if r.Positions[tDist] != cwWant {
						cwOK = false
					}
					if r.Positions[tDist] != ccwWant {
						ccwOK = false
					}
				}
				if !cwOK && !ccwOK {
					t.Fatalf("n=%d seed=%d agent %d: positions %v do not match either orientation", n, seed, i, r.Positions)
				}
				maxDistances := n/2 + 3 + 2 // schedule + pivots + one completeness probe pair
				if n%2 == 1 {
					maxDistances = (n+1)/2 + 2
				}
				if r.RoundsDistances > maxDistances+4 {
					t.Errorf("n=%d agent %d: Distances used %d rounds (expected about n/2 = %d)",
						n, i, r.RoundsDistances, n/2)
				}
			}
			if leaders != 1 {
				t.Fatalf("n=%d: %d leaders", n, leaders)
			}
		}
	}
}

func TestDistancesValidation(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 6, Seed: 2})
	_, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return DistancesStep(core.NewFrame(a), 0, 6, func(_ []int64, offset int) (engine.Yield, engine.Cont) { return k(offset) })
	})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("got %v, want ErrProtocol", err)
	}
}

func TestConvolutionScheduleHelpers(t *testing.T) {
	if convolutionException(8, 1) != 8 || convolutionException(8, 2) != 6 || convolutionException(8, 4) != 2 {
		t.Error("convolutionException wrong for n=8")
	}
	if convolutionException(8, 5) != 8 {
		t.Error("convolutionException should wrap")
	}
	if convolutionRotation(8) != 2 || convolutionRotation(9) != 3 {
		t.Error("convolutionRotation wrong")
	}
	if convolutionDir(3, 8) != ring.Clockwise || convolutionDir(4, 8) != ring.Anticlockwise || convolutionDir(8, 8) != ring.Clockwise {
		t.Error("convolutionDir wrong")
	}
	// Pivot halves: rotation index must be zero.
	n := 10
	for _, p := range []int{n, n - 1, n - 2} {
		cw := 0
		for l := 1; l <= n; l++ {
			if pivotDir(l, p, n) == ring.Clockwise {
				cw++
			}
		}
		if cw != n/2 {
			t.Errorf("pivot %d: %d clockwise agents, want %d", p, cw, n/2)
		}
	}
	// spanToOpposite: in Convolution(8) label 1 (clockwise) meets label 2.
	dirOf := func(l int) ring.Direction { return convolutionDir(l, 8) }
	if span, ok := spanToOpposite(dirOf, 1, 10, ring.Clockwise); !ok || span != 1 {
		t.Errorf("spanToOpposite(1) = %d %v", span, ok)
	}
	// Label 7 (clockwise) is followed by 8 (exception, clockwise) and 9
	// (clockwise), so the nearest opposite is 10 at span 3.
	if span, ok := spanToOpposite(dirOf, 7, 10, ring.Clockwise); !ok || span != 3 {
		t.Errorf("spanToOpposite(7) = %d %v", span, ok)
	}
	// All-clockwise assignment has no opposite agent.
	if _, ok := spanToOpposite(func(int) ring.Direction { return ring.Clockwise }, 1, 10, ring.Clockwise); ok {
		t.Error("spanToOpposite should report no opposite agent")
	}
}
