package engine

import (
	"errors"
	"testing"

	"ringsym/internal/geom"
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

// TestNetworkResetValidates pins one error surface for New and Reset: every
// invalid configuration fails both a fresh New and a Reset of a network that
// has already run with the same sentinel and the same message.
func TestNetworkResetValidates(t *testing.T) {
	cases := []struct {
		name string
		edit func(c *Config)
		want error
	}{
		{"bad model", func(c *Config) { c.Model = ring.Model(42) }, ring.ErrInvalidModel},
		{"zero circumference", func(c *Config) { c.Circ = 0 }, geom.ErrBadCircumference},
		{"odd circumference", func(c *Config) { c.Circ = 63 }, geom.ErrBadCircumference},
		{"n < 2", func(c *Config) {
			c.Positions, c.IDs, c.AllowSmall = []int64{4}, []int{1}, true
		}, ring.ErrAllowSmallMissing},
		{"n <= 4 without AllowSmall", func(c *Config) {
			c.Positions, c.IDs = []int64{0, 10, 22, 30}, []int{3, 1, 4, 2}
		}, ring.ErrTooFewAgents},
		{"unsorted positions", func(c *Config) { c.Positions = []int64{0, 22, 10, 30, 44} }, ring.ErrBadPositions},
		{"repeated positions", func(c *Config) { c.Positions = []int64{0, 10, 10, 30, 44} }, ring.ErrBadPositions},
		{"ID count != n", func(c *Config) { c.IDs = []int{3, 1, 4, 5} }, ErrBadIDs},
		{"IDBound < n", func(c *Config) { c.IDs, c.IDBound = []int{3, 1, 4, 2, 1}, 4 }, ErrBadIDs},
		{"out-of-range ID", func(c *Config) { c.IDs = []int{3, 1, 4, 21, 2} }, ErrBadIDs},
		{"duplicate ID", func(c *Config) { c.IDs = []int{1, 1, 2, 3, 4} }, ErrBadIDs},
		{"chirality length", func(c *Config) { c.Chirality = []bool{true, false} }, ErrBadChirality},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resetCfgA()
			tc.edit(&cfg)
			_, errNew := New(cfg)
			used, err := New(resetCfgB())
			if err != nil {
				t.Fatal(err)
			}
			runProbe(t, used)
			errReset := used.Reset(cfg)
			if !errors.Is(errNew, tc.want) || !errors.Is(errReset, tc.want) {
				t.Fatalf("New = %v, Reset = %v, want %v", errNew, errReset, tc.want)
			}
			if errNew.Error() != errReset.Error() {
				t.Fatalf("messages differ: New %q, Reset %q", errNew, errReset)
			}
		})
	}
}

// fuzzResetBase is the larger configuration a fuzzed Reset starts from: 12
// agents with mixed chirality, so Reset has to shrink the agent slice, re-key
// the ID index and re-translate every frame.
func fuzzResetBase() Config {
	cfg := Config{Model: ring.Lazy, Circ: 512, IDBound: 40, Chirality: make([]bool, 12)}
	for i := 0; i < 12; i++ {
		cfg.Positions = append(cfg.Positions, int64(40*i+3*(i%3)))
		cfg.IDs = append(cfg.IDs, 40-3*i)
		cfg.Chirality[i] = i%3 != 1
	}
	return cfg
}

// FuzzNetworkResetMatchesNew decodes a small configuration — valid or not —
// and requires Reset on a network that has already run fuzzResetBase to
// behave exactly like New: the same error, or the same probe observations and
// rounds.  Positions and IDs are one byte per agent (at most 10 agents); an
// empty chirality input means nil.  The seed corpus (testdata/fuzz) holds
// valid configurations of 3 to 10 agents and one of each validation failure.
func FuzzNetworkResetMatchesNew(f *testing.F) {
	f.Fuzz(func(t *testing.T, model int8, circ int16, positions, ids []byte, idBound uint8, chirality []byte, allowSmall, hideParity bool) {
		if len(positions) > 10 || len(ids) > 10 || len(chirality) > 10 {
			t.Skip("more than 10 agents")
		}
		cfg := Config{
			Model:      ring.Model(model),
			Circ:       int64(circ),
			IDBound:    int(idBound),
			AllowSmall: allowSmall,
			HideParity: hideParity,
		}
		for _, p := range positions {
			cfg.Positions = append(cfg.Positions, int64(p))
		}
		for _, id := range ids {
			cfg.IDs = append(cfg.IDs, int(id))
		}
		for _, c := range chirality {
			cfg.Chirality = append(cfg.Chirality, c&1 == 1)
		}
		used, err := New(fuzzResetBase())
		if err != nil {
			t.Fatal(err)
		}
		runProbe(t, used)
		errReset := used.Reset(cfg)
		fresh, errNew := New(cfg)
		if (errNew == nil) != (errReset == nil) {
			t.Fatalf("New = %v, Reset = %v", errNew, errReset)
		}
		if errNew != nil {
			if errNew.Error() != errReset.Error() {
				t.Fatalf("messages differ: New %q, Reset %q", errNew, errReset)
			}
			return
		}
		gotObs, gotRounds := runProbe(t, used)
		wantObs, wantRounds := runProbe(t, fresh)
		if gotRounds != wantRounds {
			t.Fatalf("rounds: reset %d, fresh %d", gotRounds, wantRounds)
		}
		for i := range wantObs {
			if gotObs[i] != wantObs[i] {
				t.Fatalf("agent %d: reset %+v, fresh %+v", i, gotObs[i], wantObs[i])
			}
		}
	})
}

// TestNewAllocsIndependentOfN pins that building a network costs the same
// number of allocations at every size: the agent handles are one slab, and
// the ring state, its slices and the ID index are one object each.
func TestNewAllocsIndependentOfN(t *testing.T) {
	var counts []float64
	for _, n := range []int{8, 64, 256} {
		cfg := Config{Model: ring.Perceptive, Circ: int64(4 * n), IDBound: n}
		for i := 0; i < n; i++ {
			cfg.Positions = append(cfg.Positions, int64(4*i))
			cfg.IDs = append(cfg.IDs, i+1)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n = %d: %.0f allocations", n, got)
		counts = append(counts, got)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("engine.New allocations at n = 8, 64, 256: %v, want one count", counts)
		}
	}
}
