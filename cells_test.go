package ringsym_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ringsym"
	"ringsym/internal/core"
	"ringsym/internal/discovery"
	"ringsym/internal/engine"
	"ringsym/internal/engine/enginetest"
	"ringsym/internal/perceptive"
)

// discoverFunc is the shape of a discover pipeline.
type discoverFunc = func(a *engine.Agent, seed int64, k func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)

// TestCellsRunTheirPipelines walks the twelve cells of Tables I and II.  The
// test names each cell's pipelines by hand, from the paper and the routes
// the facade has always taken, and requires the cell to name the same paper
// results and the facade to produce exactly the outcome of a direct run of
// the named pipeline.  Two routes are known to differ from the paper
// (perceptive odd n coordinates by NMoveS; perceptive even n with a common
// sense discovers by Theorem 42 without the promise); they are pinned here
// as they run.
func TestCellsRunTheirPipelines(t *testing.T) {
	sweep := func(coordinate core.CoordinateFunc, step int) discoverFunc {
		return func(a *engine.Agent, seed int64, k func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return discovery.SweepStep(a, coordinate, seed, step, k)
		}
	}
	then := func(stages []string, more ...string) []string { return append(slices.Clip(stages), more...) }
	var (
		corollary18 = []string{"Corollary 18", "Algorithm 1", "Algorithm 2"}
		theorem27   = []string{"Theorem 27", "Algorithm 1", "Algorithm 2"}
		nmoveS      = []string{"NMoveS", "Algorithm 1", "Algorithm 2"}
		lemma13     = []string{"Lemma 13", "Lemma 10"}
		theorem42   = then(nmoveS, "RingDist", "Distances")
		odd         = core.CoordinateOddStep
		even        = core.CoordinateEvenStep
		common      = core.CoordinateCommonSenseStep
	)
	rows := []struct {
		model            ringsym.Model
		oddN, cs         bool
		coordinate       core.CoordinateFunc
		coordinateStages []string
		discover         discoverFunc // nil: not solvable (Lemma 5)
		discoverStages   []string
	}{
		{ringsym.Basic, true, false, odd, corollary18, sweep(odd, 2), then(corollary18, "Lemma 16 sweep")},
		{ringsym.Lazy, true, false, odd, corollary18, sweep(odd, 1), then(corollary18, "Lemma 16 sweep")},
		{ringsym.Perceptive, true, false, perceptive.CoordinateStep, nmoveS, sweep(odd, 2), then(corollary18, "Lemma 16 sweep")},
		{ringsym.Basic, false, false, even, theorem27, nil, nil},
		{ringsym.Lazy, false, false, even, theorem27, sweep(even, 1), then(theorem27, "Lemma 16 sweep")},
		{ringsym.Perceptive, false, false, perceptive.CoordinateStep, nmoveS, discovery.PerceptiveStep, theorem42},
		{ringsym.Basic, true, true, common, lemma13, sweep(common, 2), then(lemma13, "Lemma 16 sweep")},
		{ringsym.Lazy, true, true, common, lemma13, sweep(common, 1), then(lemma13, "Lemma 16 sweep")},
		{ringsym.Perceptive, true, true, common, lemma13, sweep(common, 2), then(lemma13, "Lemma 16 sweep")},
		{ringsym.Basic, false, true, common, lemma13, nil, nil},
		{ringsym.Lazy, false, true, common, lemma13, sweep(common, 1), then(lemma13, "Lemma 16 sweep")},
		{ringsym.Perceptive, false, true, common, lemma13, discovery.PerceptiveStep, theorem42},
	}
	for _, row := range rows {
		t.Run(fmt.Sprintf("%v/odd=%v/cs=%v", row.model, row.oddN, row.cs), func(t *testing.T) {
			c := ringsym.CellOf(row.model, row.oddN, row.cs)
			if got := resultNames(c.Coordinate.Stages); !reflect.DeepEqual(got, row.coordinateStages) {
				t.Errorf("coordinate stages %q, want %q", got, row.coordinateStages)
			}
			if got := resultNames(c.Discover.Stages); !reflect.DeepEqual(got, row.discoverStages) {
				t.Errorf("discover stages %q, want %q", got, row.discoverStages)
			}
			// Lemma 5 does not depend on a common sense of direction, which
			// lets task's Solvable read the cell without one.
			if other := ringsym.CellOf(row.model, row.oddN, !row.cs); (other.Discover.Stages == nil) != (row.discover == nil) {
				t.Errorf("the cell with common sense %v disagrees on solvability", !row.cs)
			}
			n := 8
			if row.oddN {
				n = 9
			}
			for seed := int64(1); seed <= 2; seed++ {
				cfg := ringsym.RandomConfig{N: n, Model: row.model, MixedChirality: !row.cs, Seed: seed}
				facade, direct := randomNetwork(t, cfg), randomNetwork(t, cfg)
				got, err := facade.Coordinate(ringsym.CoordinationOptions{CommonSense: row.cs, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if want := runCoordinate(t, direct, row.coordinate, seed); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: coordinate = %+v, the named pipeline gives %+v", seed, got, want)
				}

				facade, direct = randomNetwork(t, cfg), randomNetwork(t, cfg)
				found, err := facade.DiscoverLocations(ringsym.DiscoveryOptions{CommonSense: row.cs, Seed: seed})
				if row.discover == nil {
					if !errors.Is(err, discovery.ErrNotSolvable) {
						t.Errorf("seed %d: discover returned %v, want ErrNotSolvable", seed, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if want := runDiscover(t, direct, row.discover, seed); !reflect.DeepEqual(found, want) {
					t.Errorf("seed %d: discover = %+v, the named pipeline gives %+v", seed, found, want)
				}
			}
		})
	}
}

func resultNames(stages []ringsym.Stage) []string {
	var out []string
	for _, st := range stages {
		out = append(out, st.Result)
	}
	return out
}

func randomNetwork(t *testing.T, cfg ringsym.RandomConfig) *ringsym.Network {
	t.Helper()
	nw, err := ringsym.RandomNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// runCoordinate runs a coordinate pipeline on nw directly and reports it as
// the facade does.
func runCoordinate(t *testing.T, nw *ringsym.Network, coordinate core.CoordinateFunc, seed int64) *ringsym.CoordinationResult {
	t.Helper()
	run, err := enginetest.RunSteps(context.Background(), nw.Engine(), func(a *engine.Agent, k func(*core.Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return coordinate(a, seed, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	res := &ringsym.CoordinationResult{Rounds: run.Rounds}
	for i, c := range run.Outputs {
		res.PerAgent = append(res.PerAgent, ringsym.AgentCoordination{
			ID: nw.IDOf(i), IsLeader: c.IsLeader,
			RoundsNontrivial: c.RoundsNontrivial, RoundsAgreement: c.RoundsAgreement, RoundsLeader: c.RoundsLeader,
		})
		if c.IsLeader {
			res.LeaderID = nw.IDOf(i)
		}
	}
	return res
}

// runDiscover runs a discover pipeline on nw directly and reports it as the
// facade does.
func runDiscover(t *testing.T, nw *ringsym.Network, discover discoverFunc, seed int64) *ringsym.DiscoveryResult {
	t.Helper()
	start := nw.CurrentPositions()
	run, err := enginetest.RunSteps(context.Background(), nw.Engine(), func(a *engine.Agent, k func(*discovery.Result) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return discover(a, seed, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	res := &ringsym.DiscoveryResult{Rounds: run.Rounds, StartPositions: start}
	for i, r := range run.Outputs {
		res.PerAgent = append(res.PerAgent, ringsym.AgentDiscovery{
			ID: nw.IDOf(i), IsLeader: r.IsLeader, N: r.N, Positions: r.Positions,
			RoundsCoordination: r.RoundsCoordination, RoundsDiscovery: r.RoundsDiscovery,
		})
	}
	return res
}
