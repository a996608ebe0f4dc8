package ringsym_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ringsym"
	"ringsym/internal/engine"
	"ringsym/internal/geom"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

func TestNewNetworkValidation(t *testing.T) {
	_, err := ringsym.NewNetwork(ringsym.Config{
		Model:         ringsym.Basic,
		Circumference: 1000,
		Positions:     []int64{0, 100},
		IDs:           []int{1, 2},
		IDBound:       4,
	})
	if err == nil {
		t.Fatal("n <= 4 accepted")
	}
	nw, err := ringsym.NewNetwork(ringsym.Config{
		Model:         ringsym.Lazy,
		Circumference: 1000,
		Positions:     []int64{0, 100, 300, 500, 800},
		IDs:           []int{5, 3, 9, 1, 7},
		IDBound:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 5 || nw.Model() != ringsym.Lazy || nw.IDOf(2) != 9 {
		t.Error("accessors wrong")
	}
	if len(nw.InitialPositions()) != 5 || len(nw.CurrentPositions()) != 5 {
		t.Error("position accessors wrong")
	}
}

// TestNewNetworkResetValidates pins one error surface for the facade:
// NewNetwork and Reset of a network that has already run reject every
// invalid configuration with the same sentinel and the same message.
func TestNewNetworkResetValidates(t *testing.T) {
	valid := func() ringsym.Config {
		return ringsym.Config{
			Model:         ringsym.Lazy,
			Circumference: 1000,
			Positions:     []int64{0, 100, 300, 500, 800},
			IDs:           []int{5, 3, 9, 1, 7},
			IDBound:       16,
		}
	}
	cases := []struct {
		name string
		edit func(c *ringsym.Config)
		want error
	}{
		{"bad model", func(c *ringsym.Config) { c.Model = ringsym.Model(42) }, ring.ErrInvalidModel},
		{"zero circumference", func(c *ringsym.Config) { c.Circumference = 0 }, geom.ErrBadCircumference},
		{"odd circumference", func(c *ringsym.Config) { c.Circumference = 999 }, geom.ErrBadCircumference},
		{"n < 2", func(c *ringsym.Config) { c.Positions, c.IDs = []int64{4}, []int{1} }, ring.ErrAllowSmallMissing},
		{"n <= 4", func(c *ringsym.Config) { c.Positions, c.IDs = []int64{0, 100, 300, 500}, []int{5, 3, 9, 1} }, ring.ErrTooFewAgents},
		{"unsorted positions", func(c *ringsym.Config) { c.Positions = []int64{0, 300, 100, 500, 800} }, ring.ErrBadPositions},
		{"repeated positions", func(c *ringsym.Config) { c.Positions = []int64{0, 100, 100, 500, 800} }, ring.ErrBadPositions},
		{"ID count != n", func(c *ringsym.Config) { c.IDs = []int{5, 3, 9, 1} }, engine.ErrBadIDs},
		{"IDBound < n", func(c *ringsym.Config) { c.IDs, c.IDBound = []int{4, 3, 2, 1, 1}, 4 }, engine.ErrBadIDs},
		{"out-of-range ID", func(c *ringsym.Config) { c.IDs = []int{5, 3, 17, 1, 7} }, engine.ErrBadIDs},
		{"duplicate ID", func(c *ringsym.Config) { c.IDs = []int{5, 3, 5, 1, 7} }, engine.ErrBadIDs},
		{"chirality length", func(c *ringsym.Config) { c.Chirality = []bool{true} }, engine.ErrBadChirality},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.edit(&cfg)
			_, errNew := ringsym.NewNetwork(cfg)
			used, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: 9, Model: ringsym.Perceptive, MixedChirality: true, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := used.Coordinate(ringsym.CoordinationOptions{}); err != nil {
				t.Fatal(err)
			}
			errReset := used.Reset(cfg)
			if !errors.Is(errNew, tc.want) || !errors.Is(errReset, tc.want) {
				t.Fatalf("NewNetwork = %v, Reset = %v, want %v", errNew, errReset, tc.want)
			}
			if errNew.Error() != errReset.Error() {
				t.Fatalf("messages differ: NewNetwork %q, Reset %q", errNew, errReset)
			}
		})
	}
}

func TestRandomNetworkAndCoordinate(t *testing.T) {
	for _, model := range []ringsym.Model{ringsym.Basic, ringsym.Lazy, ringsym.Perceptive} {
		for _, n := range []int{7, 8} {
			if model == ringsym.Basic && n%2 == 0 {
				// Coordination is still solvable (location discovery is not);
				// include it to cover the Theorem 27 path.
				_ = n
			}
			nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{
				N: n, Model: model, MixedChirality: true, Seed: int64(n),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := nw.Coordinate(ringsym.CoordinationOptions{Seed: 9})
			if err != nil {
				t.Fatalf("model=%v n=%d: %v", model, n, err)
			}
			if res.LeaderID == 0 || res.Rounds <= 0 || len(res.PerAgent) != n {
				t.Fatalf("model=%v n=%d: malformed result %+v", model, n, res)
			}
			leaders := 0
			for _, a := range res.PerAgent {
				if a.IsLeader {
					leaders++
					if a.ID != res.LeaderID {
						t.Error("LeaderID mismatch")
					}
				}
			}
			if leaders != 1 {
				t.Fatalf("model=%v n=%d: %d leaders", model, n, leaders)
			}
		}
	}
}

func TestDiscoverLocationsFacade(t *testing.T) {
	cases := []struct {
		model ringsym.Model
		n     int
	}{
		{ringsym.Lazy, 8},
		{ringsym.Basic, 9},
		{ringsym.Perceptive, 8},
	}
	for _, tc := range cases {
		nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{
			N: tc.n, Model: tc.model, MixedChirality: true, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{Seed: 2})
		if err != nil {
			t.Fatalf("model=%v: %v", tc.model, err)
		}
		if len(res.PerAgent) != tc.n {
			t.Fatalf("model=%v: %d agents in result", tc.model, len(res.PerAgent))
		}
		for _, a := range res.PerAgent {
			if a.N != tc.n || len(a.Positions) != tc.n {
				t.Fatalf("model=%v: malformed agent outcome %+v", tc.model, a)
			}
		}
		// VerifyDiscovery already ran inside DiscoverLocations; run it again
		// explicitly to cover the exported path.
		if err := nw.VerifyDiscovery(res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiscoverLocationsImpossibleCase(t *testing.T) {
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: 8, Model: ringsym.Basic, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{}); err == nil {
		t.Fatal("basic model with even n should be unsolvable (Lemma 5)")
	}
}

func TestRunCustomProtocol(t *testing.T) {
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: 6, Model: ringsym.Perceptive, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), nw.Engine(), func(a *ringsym.Agent) *engine.Proto[int64] {
		return engine.NewProto(func(done func(int64, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return a.YieldRound(ringsym.Clockwise), func(in engine.Resume) (engine.Yield, engine.Cont) {
				return done(in.Obs[0].Dist, nil)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || len(res.Outputs) != 6 || nw.Rounds() != 1 {
		t.Fatalf("rounds=%d outs=%d network rounds=%d", res.Rounds, len(res.Outputs), nw.Rounds())
	}
}

func TestVerificationFailureDetected(t *testing.T) {
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: 8, Model: ringsym.Lazy, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one agent's answer: verification must notice.
	res.PerAgent[0].Positions[1] += 2
	if err := nw.VerifyDiscovery(res); !errors.Is(err, ringsym.ErrVerification) {
		t.Fatalf("got %v, want ErrVerification", err)
	}
	res.PerAgent[0].Positions[1] -= 2
	res.PerAgent[0].N = 3
	if err := nw.VerifyDiscovery(res); !errors.Is(err, ringsym.ErrVerification) {
		t.Fatalf("got %v, want ErrVerification", err)
	}
	res.PerAgent[0].N = nw.N()
	if err := nw.VerifyDiscovery(res); err != nil {
		t.Fatalf("restored result rejected: %v", err)
	}
	// A result with no agent outcomes proves nothing.
	if err := nw.VerifyDiscovery(&ringsym.DiscoveryResult{StartPositions: res.StartPositions}); !errors.Is(err, ringsym.ErrVerification) {
		t.Fatalf("empty result: got %v, want ErrVerification", err)
	}
	// Start positions of the wrong length must be rejected, not indexed.
	short := *res
	short.StartPositions = res.StartPositions[:2]
	if err := nw.VerifyDiscovery(&short); !errors.Is(err, ringsym.ErrVerification) {
		t.Fatalf("short start positions: got %v, want ErrVerification", err)
	}
}

func TestLowerBoundHelper(t *testing.T) {
	if ringsym.LocationDiscoveryLowerBound(ringsym.Lazy, 10) != 9 {
		t.Error("lazy lower bound wrong")
	}
	if ringsym.LocationDiscoveryLowerBound(ringsym.Perceptive, 10) != 5 {
		t.Error("perceptive lower bound wrong")
	}
}

func TestRandomNetworkValidation(t *testing.T) {
	if _, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
}

// TestCoordinateContextCancelled verifies that the public facade surfaces a
// context cancellation from inside the coordination pipeline.
func TestCoordinateContextCancelled(t *testing.T) {
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: 8, Seed: 3, MixedChirality: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.CoordinateContext(ctx, ringsym.CoordinationOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The network is still usable with a live context afterwards.
	if _, err := nw.Coordinate(ringsym.CoordinationOptions{}); err != nil {
		t.Fatalf("coordinate after cancelled attempt: %v", err)
	}
}

// TestRunContextCancelMidProtocol cancels a custom protocol on the facade's
// engine network that would never terminate and checks the run is cut
// short.
func TestRunContextCancelMidProtocol(t *testing.T) {
	nw, err := ringsym.RandomNetwork(ringsym.RandomConfig{N: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = engine.Run(ctx, nw.Engine(), func(a *ringsym.Agent) *engine.Proto[int] {
		return engine.NewProto(func(done func(int, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			var loop engine.Cont
			loop = func(engine.Resume) (engine.Yield, engine.Cont) {
				if a.RoundsUsed() == 5 && a.ID()%2 == 1 {
					cancel()
				}
				return a.YieldRound(ringsym.Clockwise), loop
			}
			return loop(engine.Resume{})
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if nw.Rounds() > 100 {
		t.Fatalf("cancellation did not interrupt promptly: %d rounds", nw.Rounds())
	}
}

// TestReusedNetworkMatchesFresh runs both paper tasks on one network that is
// reset between scenarios, the way a campaign worker reuses its network, and
// requires exactly a fresh network's results.  Each scenario is first cut
// short by a round budget of half its rounds, so the protocols' per-agent
// state that the agents keep across runs is left mid-protocol before the
// full run: nothing of it may carry over.
func TestReusedNetworkMatchesFresh(t *testing.T) {
	var reused *ringsym.Network
	for _, model := range []ringsym.Model{ringsym.Basic, ringsym.Lazy, ringsym.Perceptive} {
		for _, n := range []int{8, 9, 12} {
			for _, mixed := range []bool{false, true} {
				gen, err := netgen.Generate(netgen.Options{N: n, Model: model, MixedChirality: mixed, ForceSplitChirality: mixed, Seed: int64(n)})
				if err != nil {
					t.Fatal(err)
				}
				cfg := ringsym.Config{Model: gen.Model, Circumference: gen.Circ, Positions: gen.Positions, IDs: gen.IDs, IDBound: gen.IDBound, Chirality: gen.Chirality}
				for _, task := range []struct {
					name string
					run  func(*ringsym.Network) (any, int, error)
				}{
					{"coordinate", func(nw *ringsym.Network) (any, int, error) {
						res, err := nw.Coordinate(ringsym.CoordinationOptions{Seed: 7})
						if err != nil {
							return nil, 0, err
						}
						return res, res.Rounds, nil
					}},
					{"discover", func(nw *ringsym.Network) (any, int, error) {
						res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{Seed: 7})
						if err != nil {
							return nil, 0, err
						}
						return res, res.Rounds, nil
					}},
				} {
					name := fmt.Sprintf("%v/n=%d/mixed=%v/%s", model, n, mixed, task.name)
					fresh, err := ringsym.NewNetwork(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, rounds, wantErr := task.run(fresh)
					if reused == nil {
						if reused, err = ringsym.NewNetwork(cfg); err != nil {
							t.Fatal(err)
						}
					}
					if rounds > 1 {
						cut := cfg
						cut.MaxRounds = rounds / 2
						if err := reused.Reset(cut); err != nil {
							t.Fatal(err)
						}
						if _, _, err := task.run(reused); !errors.Is(err, engine.ErrMaxRoundsExceed) {
							t.Fatalf("%s: run cut at %d rounds: %v, want %v", name, cut.MaxRounds, err, engine.ErrMaxRoundsExceed)
						}
					}
					if err := reused.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					got, _, gotErr := task.run(reused)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: reused network gave %+v (%v), fresh %+v (%v)", name, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}
