package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ringsym"
	"ringsym/internal/core"
	"ringsym/internal/discovery"
	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// The tests in this file pin leap execution to the split-batch oracle
// (export_test.go) on the full protocol pipelines: every coordination and
// location-discovery machine must produce the same outputs and round counts
// when each of its batches is replayed one round per crossing.

// differential runs build twice on identical networks — with leap execution
// and under engine.SplitBatches — and returns both runs' projected outputs
// and errors once it has checked the rounds and the oracle's
// crossings-equal-rounds invariant.
func differential[T, P any](t *testing.T, opt netgen.Options, build func(a *engine.Agent) *engine.Proto[T], project func(T) P) (leap, split []P, errL, errS error) {
	t.Helper()
	nets := [2]*engine.Network{}
	outs := [2][]P{}
	errs := [2]error{}
	for i, b := range []func(a *engine.Agent) *engine.Proto[T]{build, engine.SplitBatches(build)} {
		cfg, err := netgen.Generate(opt)
		if err != nil {
			t.Fatal(err)
		}
		if nets[i], err = engine.New(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(context.Background(), nets[i], b)
		errs[i] = err
		if err == nil {
			for _, o := range res.Outputs {
				outs[i] = append(outs[i], project(o))
			}
		}
	}
	if nets[0].Rounds() != nets[1].Rounds() {
		t.Fatalf("%+v: rounds leap=%d split=%d", opt, nets[0].Rounds(), nets[1].Rounds())
	}
	if c := nets[1].Crossings(); c != nets[1].Rounds() {
		t.Fatalf("%+v: split run leapt: %d crossings for %d rounds", opt, c, nets[1].Rounds())
	}
	return outs[0], outs[1], errs[0], errs[1]
}

// coordination is the comparable part of a core.Coordination: its fields
// plus the state of the agreed frame.
type coordination struct {
	IsLeader                                        bool
	NontrivialDir                                   ring.Direction
	RoundsNontrivial, RoundsAgreement, RoundsLeader int
	Flipped                                         bool
	Displacement                                    int64
	RoundsUsed                                      int
}

func projectCoordination(c *core.Coordination) coordination {
	return coordination{c.IsLeader, c.NontrivialDir, c.RoundsNontrivial, c.RoundsAgreement, c.RoundsLeader,
		c.Frame.Flipped(), c.Frame.Displacement(), c.Frame.RoundsUsed()}
}

func projectDiscovery(r *discovery.Result) discovery.Result { return *r }

// TestRuntimeDifferentialCoordinate covers the coordination pipeline of
// every cell of the ringsym facade, for every model × parity × chirality
// shape, and with a common sense of direction on common chirality.
func TestRuntimeDifferentialCoordinate(t *testing.T) {
	for _, model := range []ring.Model{ring.Basic, ring.Lazy, ring.Perceptive} {
		for _, n := range []int{7, 8, 11, 12} {
			for _, mixed := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					opt := netgen.Options{N: n, Model: model, MixedChirality: mixed, ForceSplitChirality: mixed, Seed: seed}
					for _, cs := range []bool{false, true} {
						if cs && mixed {
							continue // a common sense needs common chirality
						}
						c := ringsym.CellOf(model, n%2 == 1, cs)
						build := func(a *engine.Agent) *engine.Proto[*core.Coordination] {
							return c.CoordinateMachine(a, seed)
						}
						leap, split, errL, errS := differential(t, opt, build, projectCoordination)
						if fmt.Sprint(errL) != fmt.Sprint(errS) {
							t.Fatalf("%+v common sense %v: errors leap=%v split=%v", opt, cs, errL, errS)
						}
						if !reflect.DeepEqual(leap, split) {
							t.Fatalf("%+v common sense %v: outputs differ\nleap:  %+v\nsplit: %+v", opt, cs, leap, split)
						}
					}
				}
			}
		}
	}
}

// TestRuntimeDifferentialDiscover does the same for the cells'
// location-discovery pipelines, covering the lazy sweep, the odd-n
// basic/perceptive sweep and the even-n perceptive Section V pipeline.
func TestRuntimeDifferentialDiscover(t *testing.T) {
	for _, tc := range []struct {
		model ring.Model
		n     int
		mixed bool
	}{
		{ring.Lazy, 8, true},
		{ring.Lazy, 9, false},
		{ring.Basic, 9, true},
		{ring.Perceptive, 9, true},
		{ring.Perceptive, 8, true},
		{ring.Perceptive, 12, false},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			opt := netgen.Options{N: tc.n, Model: tc.model, MixedChirality: tc.mixed, ForceSplitChirality: tc.mixed, Seed: seed}
			c := ringsym.CellOf(tc.model, tc.n%2 == 1, false)
			build := func(a *engine.Agent) *engine.Proto[*discovery.Result] {
				return c.DiscoverMachine(a, seed)
			}
			leap, split, errL, errS := differential(t, opt, build, projectDiscovery)
			if errL != nil || errS != nil {
				t.Fatalf("%+v: errors leap=%v split=%v", opt, errL, errS)
			}
			if !reflect.DeepEqual(leap, split) {
				t.Fatalf("%+v: outputs differ\nleap:  %+v\nsplit: %+v", opt, leap, split)
			}
		}
	}
}

// TestDiscoveryLeapMatchesLegacy runs full location discovery with leap
// execution and under the per-round split-batch oracle on larger-N
// configurations than the differential grid, including the split-chirality
// lazy and perceptive cases.
func TestDiscoveryLeapMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  netgen.Options
	}{
		{"lazy-even-mixed", netgen.Options{N: 10, IDBound: 64, Seed: 7, Model: ring.Lazy, MixedChirality: true, ForceSplitChirality: true}},
		{"basic-odd-common", netgen.Options{N: 9, IDBound: 64, Seed: 8, Model: ring.Basic}},
		{"perceptive-even-mixed", netgen.Options{N: 8, IDBound: 64, Seed: 9, Model: ring.Perceptive, MixedChirality: true, ForceSplitChirality: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := ringsym.CellOf(tc.opt.Model, tc.opt.N%2 == 1, false)
			build := func(a *engine.Agent) *engine.Proto[*discovery.Result] {
				return c.DiscoverMachine(a, 11)
			}
			leap, split, errL, errS := differential(t, tc.opt, build, projectDiscovery)
			if errL != nil || errS != nil {
				t.Fatalf("errors: leap=%v split=%v", errL, errS)
			}
			if !reflect.DeepEqual(leap, split) {
				t.Fatalf("outputs differ\nleap:  %+v\nsplit: %+v", leap, split)
			}
		})
	}
}
