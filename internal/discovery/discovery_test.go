package discovery_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ringsym"
	"ringsym/internal/core"
	"ringsym/internal/discovery"
	"ringsym/internal/engine"
	"ringsym/internal/engine/enginetest"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

func newNetwork(t *testing.T, opt netgen.Options) *engine.Network {
	t.Helper()
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

// checkPositions verifies a location-discovery result against the network's
// ground truth, accepting either global orientation of the agreed frame but
// requiring consistency.
func checkPositions(t *testing.T, nw *engine.Network, outputs []*discovery.Result) {
	t.Helper()
	pos := nw.InitialPositions()
	circ := nw.Circ()
	n := nw.N()
	leaders := 0
	for i, r := range outputs {
		if r.IsLeader {
			leaders++
		}
		if r.N != n {
			t.Fatalf("agent %d: discovered N = %d, want %d", i, r.N, n)
		}
		if len(r.Positions) != n || r.Positions[0] != 0 {
			t.Fatalf("agent %d: malformed positions %v", i, r.Positions)
		}
		cwOK, ccwOK := true, true
		for d := 0; d < n; d++ {
			cwWant := 2 * (((pos[(i+d)%n]-pos[i])%circ + circ) % circ)
			ccwWant := 2 * (((pos[i]-pos[((i-d)%n+n)%n])%circ + circ) % circ)
			if r.Positions[d] != cwWant {
				cwOK = false
			}
			if r.Positions[d] != ccwWant {
				ccwOK = false
			}
		}
		if !cwOK && !ccwOK {
			t.Fatalf("agent %d: positions %v match neither orientation", i, r.Positions)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
}

// pipeline is a location-discovery pipeline bound to its seed.
type pipeline = func(a *engine.Agent, k func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)

// sweep is Lemma 16's sweep with the rotation index step, after the
// coordinate pipeline.
func sweep(coordinate core.CoordinateFunc, seed int64, step int) pipeline {
	return func(a *engine.Agent, k func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return discovery.SweepStep(a, coordinate, seed, step, k)
	}
}

// theorem7 is the coordinate pipeline for n agents without a common sense of
// direction: Corollary 18's for odd n, Theorem 27's schedule for even n.
func theorem7(n int) core.CoordinateFunc {
	if n%2 == 1 {
		return core.CoordinateOddStep
	}
	return core.CoordinateEvenStep
}

func runDiscovery(t *testing.T, nw *engine.Network, p pipeline) []*discovery.Result {
	t.Helper()
	res, err := enginetest.RunSteps(context.Background(), nw, p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Outputs
}

func TestLocationDiscoveryLazy(t *testing.T) {
	for _, n := range []int{6, 9, 12} {
		for _, common := range []bool{false, true} {
			opt := netgen.Options{N: n, IDBound: 64, Seed: int64(n), Model: ring.Lazy}
			if !common {
				opt.MixedChirality = true
				opt.ForceSplitChirality = true
			}
			nw := newNetwork(t, opt)
			coordinate := theorem7(n)
			if common {
				coordinate = core.CoordinateCommonSenseStep
			}
			outputs := runDiscovery(t, nw, sweep(coordinate, 11, 1))
			checkPositions(t, nw, outputs)
			// Lemma 16: the sweep itself takes exactly n rounds.
			for i, r := range outputs {
				if r.RoundsDiscovery != n {
					t.Errorf("n=%d agent %d: sweep took %d rounds, want %d", n, i, r.RoundsDiscovery, n)
				}
			}
		}
	}
}

func TestLocationDiscoveryBasicOdd(t *testing.T) {
	for _, n := range []int{7, 11} {
		nw := newNetwork(t, netgen.Options{
			N: n, IDBound: 64, Seed: int64(n), Model: ring.Basic,
			MixedChirality: true, ForceSplitChirality: true,
		})
		outputs := runDiscovery(t, nw, sweep(core.CoordinateOddStep, 3, 2))
		checkPositions(t, nw, outputs)
		for i, r := range outputs {
			if r.RoundsDiscovery != n {
				t.Errorf("n=%d agent %d: sweep took %d rounds, want %d", n, i, r.RoundsDiscovery, n)
			}
		}
	}
}

func TestLocationDiscoveryPerceptive(t *testing.T) {
	for _, n := range []int{8, 12} {
		nw := newNetwork(t, netgen.Options{
			N: n, IDBound: 64, Seed: int64(n), Model: ring.Perceptive,
			MixedChirality: true, ForceSplitChirality: true,
		})
		outputs := runDiscovery(t, nw, func(a *engine.Agent, k func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return discovery.PerceptiveStep(a, 3, k)
		})
		checkPositions(t, nw, outputs)
		// Theorem 42: the discovery stage costs n/2 rounds plus a constant
		// overhead (three pivots and one completeness probe pair).
		for i, r := range outputs {
			if r.RoundsDiscovery > n/2+5 {
				t.Errorf("n=%d agent %d: perceptive discovery used %d rounds, expected about n/2", n, i, r.RoundsDiscovery)
			}
		}
	}
	// Odd n in the perceptive model falls back to the sweep.
	nw := newNetwork(t, netgen.Options{N: 9, IDBound: 64, Seed: 5, Model: ring.Perceptive, MixedChirality: true, ForceSplitChirality: true})
	checkPositions(t, nw, runDiscovery(t, nw, sweep(core.CoordinateOddStep, 3, 2)))
}

// TestLocationDiscoveryBasicEvenImpossible checks that the cell of the basic
// model with even n, with or without a common sense of direction, runs no
// discovery pipeline and fails with discovery.ErrNotSolvable (Lemma 5).
func TestLocationDiscoveryBasicEvenImpossible(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 8, IDBound: 64, Seed: 2, Model: ring.Basic})
	for _, cs := range []bool{false, true} {
		c := ringsym.CellOf(ring.Basic, false, cs)
		if c.Discover.Stages != nil {
			t.Errorf("common sense %v: basic even cell discovers by %v", cs, c.Discover.Stages)
		}
		_, err := engine.Run(context.Background(), nw, func(a *engine.Agent) *engine.Proto[*discovery.Result] {
			return c.DiscoverMachine(a, 0)
		})
		if !errors.Is(err, discovery.ErrNotSolvable) {
			t.Fatalf("common sense %v: got %v, want discovery.ErrNotSolvable", cs, err)
		}
	}
}

func TestLowerBoundRounds(t *testing.T) {
	if discovery.LowerBoundRounds(ring.Basic, 10) != 9 || discovery.LowerBoundRounds(ring.Lazy, 10) != 9 {
		t.Error("basic/lazy lower bound should be n-1")
	}
	if discovery.LowerBoundRounds(ring.Perceptive, 10) != 5 {
		t.Error("perceptive lower bound should be n/2")
	}
}

func TestTwinConfigurationValidation(t *testing.T) {
	circ := int64(1000)
	positions := []int64{0, 100, 300, 600}
	if _, err := discovery.TwinConfiguration(circ, []int64{0, 100, 300}, 5); err == nil {
		t.Error("odd n accepted")
	}
	if _, err := discovery.TwinConfiguration(circ, []int64{100, 0, 300, 600}, 5); err == nil {
		t.Error("unsorted positions accepted")
	}
	if _, err := discovery.TwinConfiguration(circ, positions, 0); err == nil {
		t.Error("delta 0 accepted")
	}
	if _, err := discovery.TwinConfiguration(circ, positions, 100000); err == nil {
		t.Error("oversized delta accepted")
	}
	twin, err := discovery.TwinConfiguration(circ, positions, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 110, 300, 610}
	for i := range want {
		if twin[i] != want[i] {
			t.Fatalf("twin = %v, want %v", twin, want)
		}
	}
}

// TestLemma5TwinWorldsIndistinguishable verifies the impossibility argument:
// for any schedule of basic-model rounds, the original configuration and its
// alternating perturbation generate identical observations for every agent,
// even though the configurations differ.
func TestLemma5TwinWorldsIndistinguishable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + 2*r.Intn(6) // even, 6..16
		circ := int64(1 << 16)
		cfg := netgen.MustGenerate(netgen.Options{N: n, Circ: circ, Seed: seed, Model: ring.Basic})
		positions := cfg.Positions
		twin, err := discovery.TwinConfiguration(circ, positions, 1)
		if err != nil {
			return false
		}
		// The twin really is a different world.
		same := true
		for i := range twin {
			if twin[i] != positions[i] {
				same = false
			}
		}
		if same {
			return false
		}
		schedule := make([][]ring.Direction, 30)
		for t := range schedule {
			dirs := make([]ring.Direction, n)
			for i := range dirs {
				if r.Intn(2) == 0 {
					dirs[i] = ring.Clockwise
				} else {
					dirs[i] = ring.Anticlockwise
				}
			}
			schedule[t] = dirs
		}
		eq, err := discovery.ObservationallyEquivalent(circ, positions, twin, schedule)
		return err == nil && eq
	}, &quick.Config{MaxCount: 40, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLemma5PerceptiveDistinguishes shows the contrast: with coll() available
// the two twin worlds are distinguishable (some agent observes a different
// first collision), which is why the perceptive model escapes Lemma 5.
func TestLemma5PerceptiveDistinguishes(t *testing.T) {
	circ := int64(1 << 12)
	cfg := netgen.MustGenerate(netgen.Options{N: 8, Circ: circ, Seed: 4, Model: ring.Perceptive})
	positions := cfg.Positions
	twin, err := discovery.TwinConfiguration(circ, positions, 2)
	if err != nil {
		t.Fatal(err)
	}
	stA, err := ring.New(ring.Config{Model: ring.Perceptive, Circ: circ, Positions: positions})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := ring.New(ring.Config{Model: ring.Perceptive, Circ: circ, Positions: twin})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]ring.Direction, 8)
	for i := range dirs {
		if i%2 == 0 {
			dirs[i] = ring.Clockwise
		} else {
			dirs[i] = ring.Anticlockwise
		}
	}
	outA, err := stA.ExecuteRound(dirs)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := stB.ExecuteRound(dirs)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := range outA.Agents {
		if outA.Agents[i].Coll != outB.Agents[i].Coll {
			differ = true
		}
	}
	if !differ {
		t.Error("coll() observations should differ between the twin worlds")
	}
}

// TestSweepGuardDenseRing pins the runaway-guard bound of SweepStep at
// its boundary: with one agent on every tick the sweep's visited list reaches
// exactly the circumference in ticks, which the guard must allow (the old
// bound compared a round count against half-ticks, twice as loose as
// intended, and truncated the circumference through int() on 32-bit
// platforms).
func TestSweepGuardDenseRing(t *testing.T) {
	const n = 8 // n == circ: every tick occupied
	positions := make([]int64, n)
	ids := make([]int, n)
	for i := range positions {
		positions[i] = int64(i)
		ids[i] = i + 1
	}
	nw, err := engine.New(engine.Config{
		Model: ring.Lazy, Circ: n, Positions: positions, IDs: ids, IDBound: 4 * n,
	})
	if err != nil {
		t.Fatal(err)
	}
	outputs := runDiscovery(t, nw, sweep(core.CoordinateEvenStep, 3, 1))
	checkPositions(t, nw, outputs)
	for i, r := range outputs {
		if r.N != n {
			t.Fatalf("agent %d discovered n = %d, want %d", i, r.N, n)
		}
	}
}

// TestSweepRoundsExact pins that the leap-batched sweep consumes exactly n
// discovery rounds — the closed-form stop prevents the doubling batches from
// overshooting the return round the per-round loop stopped at.
func TestSweepRoundsExact(t *testing.T) {
	for _, tc := range []struct {
		model ring.Model
		n     int
		step  int
	}{
		{ring.Lazy, 12, 1}, {ring.Lazy, 9, 1}, {ring.Basic, 9, 2}, {ring.Perceptive, 9, 2},
	} {
		nw := newNetwork(t, netgen.Options{N: tc.n, IDBound: 64, Seed: 5, Model: tc.model, MixedChirality: true, ForceSplitChirality: true})
		outputs := runDiscovery(t, nw, sweep(theorem7(tc.n), 5, tc.step))
		for i, r := range outputs {
			if r.RoundsDiscovery != tc.n {
				t.Fatalf("%v n=%d agent %d: sweep consumed %d rounds, want exactly %d",
					tc.model, tc.n, i, r.RoundsDiscovery, tc.n)
			}
		}
	}
}
