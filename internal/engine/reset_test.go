package engine

import (
	"errors"
	"testing"

	"ringsym/internal/ring"
)

// resetCfgA/resetCfgB are two configurations of different sizes, models and
// chirality regimes, so resetting between them exercises re-sizing, re-keying
// and frame re-translation.
func resetCfgA() Config {
	return Config{
		Model:     ring.Perceptive,
		Circ:      64,
		Positions: []int64{0, 10, 22, 30, 44},
		IDs:       []int{3, 1, 4, 5, 2},
		IDBound:   20,
	}
}

func resetCfgB() Config {
	return Config{
		Model:     ring.Basic,
		Circ:      96,
		Positions: []int64{2, 8, 20, 34, 40, 58, 70, 80},
		IDs:       []int{8, 2, 7, 1, 5, 3, 6, 4},
		IDBound:   32,
		Chirality: []bool{true, false, true, true, false, true, false, true},
	}
}

// runProbe runs a tiny fixed protocol and fingerprints the run: per-agent
// first-round observations plus total rounds.
func runProbe(t *testing.T, nw *Network) ([]Observation, int) {
	t.Helper()
	res, err := run(nw, func(a *Agent) *Proto[Observation] {
		return NewProto(func(done func(Observation, error) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRound(ring.Clockwise), func(in Resume) (Yield, Cont) {
				first := in.Obs[0]
				return a.YieldRoundN(ring.Anticlockwise, 3), func(in Resume) (Yield, Cont) {
					return done(first, nil)
				}
			}
		})
	})
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	return res.Outputs, res.Rounds
}

// TestNetworkResetMatchesFresh drives the same probe through a Reset network
// and a fresh one and requires identical observations — Reset must be
// indistinguishable from New for every runtime-visible output.
func TestNetworkResetMatchesFresh(t *testing.T) {
	reused, err := New(resetCfgA())
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the reused network's state first so leftovers would show.
	runProbe(t, reused)

	for _, cfg := range []Config{resetCfgB(), resetCfgA(), resetCfgB()} {
		if err := reused.Reset(cfg); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotObs, gotRounds := runProbe(t, reused)
		wantObs, wantRounds := runProbe(t, fresh)
		if gotRounds != wantRounds {
			t.Fatalf("rounds: reset %d, fresh %d", gotRounds, wantRounds)
		}
		for i := range wantObs {
			if gotObs[i] != wantObs[i] {
				t.Fatalf("agent %d: reset %+v, fresh %+v", i, gotObs[i], wantObs[i])
			}
		}
		if reused.Rounds() != fresh.Rounds() {
			t.Fatalf("network rounds: reset %d, fresh %d", reused.Rounds(), fresh.Rounds())
		}
		if got, want := reused.IndexOfID(cfg.IDs[0]), 0; got != want {
			t.Fatalf("IndexOfID(%d) = %d, want %d", cfg.IDs[0], got, want)
		}
	}
}

// TestNetworkResetValidates pins the error surface: a Reset with an invalid
// configuration fails like New would.
func TestNetworkResetValidates(t *testing.T) {
	nw, err := New(resetCfgA())
	if err != nil {
		t.Fatal(err)
	}
	bad := resetCfgA()
	bad.IDs = []int{1, 1, 2, 3, 4}
	if err := nw.Reset(bad); !errors.Is(err, ErrBadIDs) {
		t.Fatalf("Reset(dup ids) = %v, want ErrBadIDs", err)
	}
}
