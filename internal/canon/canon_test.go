package canon_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/physics"
	"ringsym/internal/ring"
)

func TestMapRoundTrip(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		for r := 0; r < n; r++ {
			for _, refl := range []bool{false, true} {
				m := canon.Map{N: n, Rotation: r, Reflected: refl}
				for i := 0; i < n; i++ {
					if got := m.OrigIndex(m.CanonIndex(i)); got != i {
						t.Fatalf("n=%d r=%d refl=%v: OrigIndex(CanonIndex(%d)) = %d", n, r, refl, i, got)
					}
					if got := m.CanonIndex(m.OrigIndex(i)); got != i {
						t.Fatalf("n=%d r=%d refl=%v: CanonIndex(OrigIndex(%d)) = %d", n, r, refl, i, got)
					}
				}
				if m.OrigIndex(0) != r {
					t.Fatalf("canonical index 0 must be original index Rotation")
				}
			}
		}
	}
}

// TestCanonicalizeHandWorked pins the canonical form of a small hand-worked
// configuration: circumference 20, positions 2/6/8, identifiers 5/1/3.  The
// gap traversals are small enough to enumerate on paper; the winner is the
// forward traversal from ring index 1, giving gaps (2, 14, 4).
func TestCanonicalizeHandWorked(t *testing.T) {
	cfg := engine.Config{
		Model:      ring.Basic,
		Circ:       20,
		Positions:  []int64{2, 6, 8},
		IDs:        []int{5, 1, 3},
		IDBound:    8,
		AllowSmall: true,
	}
	ccfg, m, err := canon.Canonicalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 2, 16}; !reflect.DeepEqual(ccfg.Positions, want) {
		t.Errorf("canonical positions = %v, want %v", ccfg.Positions, want)
	}
	if want := []int{1, 3, 5}; !reflect.DeepEqual(ccfg.IDs, want) {
		t.Errorf("canonical IDs = %v, want %v", ccfg.IDs, want)
	}
	if ccfg.Chirality != nil {
		t.Errorf("all-true chirality must normalise to nil, got %v", ccfg.Chirality)
	}
	if m != (canon.Map{N: 3, Rotation: 1, Reflected: false}) {
		t.Errorf("map = %+v", m)
	}
}

// TestReflectionUsesChirality pins that the chirality bits participate in the
// canonical choice: on a configuration whose gaps and identifiers are
// mirror-symmetric, the orientation with the lexicographically smaller
// chirality stream must win.
func TestReflectionUsesChirality(t *testing.T) {
	// Equal gaps, palindromic id layout around index 0 is impossible with
	// distinct ids, so use ids that tie through the first position and let
	// chirality break a gap/id tie instead: two agents, equal gaps, the
	// traversal is decided purely by (id, chirality).
	cfg := engine.Config{
		Model:      ring.Basic,
		Circ:       8,
		Positions:  []int64{0, 4},
		IDs:        []int{1, 2},
		IDBound:    4,
		Chirality:  []bool{true, false},
		AllowSmall: true,
	}
	ccfg, m, err := canon.Canonicalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Forward from 0 gives (4,1,true)(4,2,false); reflected from 0 gives
	// (4,1,false)(4,2,true).  The reflected stream is smaller (false < true
	// at the first chirality slot).
	if !m.Reflected || m.Rotation != 0 {
		t.Fatalf("map = %+v, want reflection at rotation 0", m)
	}
	if want := []bool{false, true}; !reflect.DeepEqual(ccfg.Chirality, want) {
		t.Errorf("canonical chirality = %v, want %v", ccfg.Chirality, want)
	}
}

func mustGen(t testing.TB, opt netgen.Options) engine.Config {
	t.Helper()
	cfg, err := netgen.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustTransform(t testing.TB, cfg engine.Config, rot int, refl bool) engine.Config {
	t.Helper()
	out, err := canon.Transform(cfg, rot, refl)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOrbitKeyInvarianceExhaustive enumerates, for small n, every member of
// the rotation × reflection orbit of random and equally spaced
// configurations and demands that all of them canonicalize to the same
// representative and the same key.
func TestOrbitKeyInvarianceExhaustive(t *testing.T) {
	for _, n := range []int{5, 6} {
		for _, equal := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := mustGen(t, netgen.Options{
					N: n, Seed: seed, Model: ring.Perceptive,
					MixedChirality: true, ForceSplitChirality: true, EqualSpacing: equal,
				})
				wantCfg, _, err := canon.Canonicalize(cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantKey := canon.Fingerprint(wantCfg)
				for rot := 0; rot < n; rot++ {
					for _, refl := range []bool{false, true} {
						member := mustTransform(t, cfg, rot, refl)
						gotCfg, m, err := canon.Canonicalize(member)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gotCfg, wantCfg) {
							t.Fatalf("n=%d equal=%v seed=%d rot=%d refl=%v: canonical form differs\n got %+v\nwant %+v",
								n, equal, seed, rot, refl, gotCfg, wantCfg)
						}
						if got, err := canon.Key(member); err != nil || got != wantKey {
							t.Fatalf("key differs for orbit member rot=%d refl=%v: %v %v", rot, refl, got, err)
						}
						// The map must actually relate the member to the canonical frame:
						// agent at member index i carries the same ID as the canonical
						// agent at the mapped index.
						for i := 0; i < n; i++ {
							if member.IDs[i] != gotCfg.IDs[m.CanonIndex(i)] {
								t.Fatalf("map does not preserve IDs at index %d", i)
							}
						}
					}
				}
			}
		}
	}
}

// TestCanonicalizeIdempotent: identifiers are distinct, so the orbit
// stabiliser is trivial and canonicalizing a canonical configuration must be
// the identity.
func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		n := 5 + rng.Intn(30)
		cfg := mustGen(t, netgen.Options{N: n, Seed: rng.Int63(), Model: ring.Basic, MixedChirality: i%2 == 0, ForceSplitChirality: i%2 == 0})
		ccfg, _, err := canon.Canonicalize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, m, err := canon.Canonicalize(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, ccfg) {
			t.Fatalf("canonicalize not idempotent (n=%d)", n)
		}
		if m.Rotation != 0 || m.Reflected {
			t.Fatalf("canonical config mapped by non-identity %+v", m)
		}
	}
}

// TestKeySensitivity: fields that change the dynamics must change the key.
func TestKeySensitivity(t *testing.T) {
	base := mustGen(t, netgen.Options{N: 8, Seed: 1, Model: ring.Basic})
	key := func(c engine.Config) string {
		k, err := canon.Key(c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0 := key(base)
	for name, mutate := range map[string]func(engine.Config) engine.Config{
		"model":      func(c engine.Config) engine.Config { c.Model = ring.Lazy; return c },
		"idbound":    func(c engine.Config) engine.Config { c.IDBound++; return c },
		"maxrounds":  func(c engine.Config) engine.Config { c.MaxRounds = 12345; return c },
		"hideparity": func(c engine.Config) engine.Config { c.HideParity = true; return c },
		"id": func(c engine.Config) engine.Config {
			ids := append([]int(nil), c.IDs...)
			ids[0] = c.IDBound // distinct from all: netgen draws from [1, bound], bump guarantees change only if unused; fall back below
			for _, v := range c.IDs {
				if v == ids[0] {
					ids[0] = v - 1
				}
			}
			c.IDs = ids
			return c
		},
	} {
		if key(mutate(base)) == k0 {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	// A pure translation+rotation must NOT change the key.
	if key(mustTransform(t, base, 3, false)) != k0 {
		t.Errorf("rotation changed the key")
	}
}

// outcomeOf runs the task pipeline on cfg through the public facade and
// returns the frame-independent invariants plus, for discover, the
// per-agent outcomes by ring index.
type agentOutcome struct {
	ID       int
	IsLeader bool
	// Positions is the discovery map in the agent's agreed frame.
	Positions []int64
}

func outcomeOf(t *testing.T, cfg engine.Config, task string, commonSense bool, seed int64) (rounds, leaderID int, split [5]int, agents []agentOutcome) {
	t.Helper()
	nw, err := ringsym.NewNetwork(ringsym.Config{
		Model: cfg.Model, Circumference: cfg.Circ, Positions: cfg.Positions,
		IDs: cfg.IDs, IDBound: cfg.IDBound, Chirality: cfg.Chirality, MaxRounds: cfg.MaxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	switch task {
	case "coordinate":
		res, err := nw.Coordinate(ringsym.CoordinationOptions{CommonSense: commonSense, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds, res.LeaderID, [5]int{res.RoundsNontrivial, res.RoundsAgreement, res.RoundsLeader, 0, 0}, nil
	case "discover":
		res, err := nw.DiscoverLocations(ringsym.DiscoveryOptions{CommonSense: commonSense, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		agents = make([]agentOutcome, len(res.PerAgent))
		for i, a := range res.PerAgent {
			agents[i] = agentOutcome{ID: a.ID, IsLeader: a.IsLeader, Positions: a.Positions}
			if a.IsLeader {
				leaderID = a.ID
			}
		}
		return res.Rounds, leaderID, [5]int{0, 0, 0, res.RoundsCoordination, res.RoundsDiscovery}, agents
	}
	t.Fatalf("unknown task %s", task)
	return 0, 0, [5]int{}, nil
}

// TestEngineOrbitInvariance is the proof obligation of the package: for every
// movement model, both chirality regimes and both task pipelines, the outcome
// of a run on any orbit member — total rounds, elected leader, verification,
// the stage split and the discovery maps — equals the outcome on the
// canonical representative, modulo the index Map.  The facade verifies every
// run against the simulator's ground truth, so passing outcomes are also
// correct outcomes.
func TestEngineOrbitInvariance(t *testing.T) {
	type setting struct {
		model ring.Model
		mixed bool
		cs    bool
		task  string
		n     int
	}
	var settings []setting
	for _, model := range []ring.Model{ring.Basic, ring.Lazy, ring.Perceptive} {
		for _, mixed := range []bool{false, true} {
			for _, task := range []string{"coordinate", "discover"} {
				for _, n := range []int{7, 8} {
					if task == "discover" && n%2 == 0 && model != ring.Perceptive {
						continue // Lemma 5: unsolvable for even n outside the perceptive model
					}
					settings = append(settings, setting{model, mixed, false, task, n})
				}
			}
		}
	}
	// One common-sense setting per task (only valid with common chirality).
	settings = append(settings,
		setting{ring.Basic, false, true, "coordinate", 8},
		setting{ring.Perceptive, false, true, "discover", 8},
	)
	rng := rand.New(rand.NewSource(11))
	for _, s := range settings {
		s := s
		name := fmt.Sprintf("%v/mixed=%v/cs=%v/%s/n=%d", s.model, s.mixed, s.cs, s.task, s.n)
		t.Run(name, func(t *testing.T) {
			seed := int64(1 + rng.Intn(100))
			cfg := mustGen(t, netgen.Options{
				N: s.n, Seed: seed, Model: s.model,
				MixedChirality: s.mixed, ForceSplitChirality: s.mixed,
			})
			rounds, leader, split, agents := outcomeOf(t, cfg, s.task, s.cs, seed)

			ccfg, m, err := canon.Canonicalize(cfg)
			if err != nil {
				t.Fatal(err)
			}
			members := []struct {
				cfg engine.Config
				m   canon.Map
			}{{ccfg, m}}
			// Plus one random non-canonical orbit member.
			rot, refl := rng.Intn(s.n), rng.Intn(2) == 1
			mcfg := mustTransform(t, cfg, rot, refl)
			members = append(members, struct {
				cfg engine.Config
				m   canon.Map
			}{mcfg, canon.Map{N: s.n, Rotation: rot, Reflected: refl}})

			for _, mem := range members {
				gotRounds, gotLeader, gotSplit, gotAgents := outcomeOf(t, mem.cfg, s.task, s.cs, seed)
				if gotRounds != rounds {
					t.Errorf("rounds = %d, want %d (map %+v)", gotRounds, rounds, mem.m)
				}
				if gotLeader != leader {
					t.Errorf("leader = %d, want %d (map %+v)", gotLeader, leader, mem.m)
				}
				if gotSplit != split {
					t.Errorf("stage split = %v, want %v (map %+v)", gotSplit, split, mem.m)
				}
				for i := range agents {
					want := agents[i]
					got := gotAgents[mem.m.CanonIndex(i)]
					if got.ID != want.ID || got.IsLeader != want.IsLeader {
						t.Errorf("agent %d: got %+v, want %+v (map %+v)", i, got, want, mem.m)
					}
					if !reflect.DeepEqual(got.Positions, want.Positions) {
						t.Errorf("agent %d: discovery map differs across the orbit (map %+v)", i, mem.m)
					}
				}
			}
		})
	}
}

// TestPhysicsCrossCheck validates the orbit symmetry on the independent
// event-driven simulator: transforming a configuration and its (ID-derived,
// hence frame-equivariant) objective directions permutes the per-agent
// collision observables through the Map and transports final positions
// through the frame map.
func TestPhysicsCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(8)
		cfg := mustGen(t, netgen.Options{N: n, Seed: rng.Int63(), Model: ring.Perceptive, Circ: 1 << 10})
		dirs := make([]ring.Direction, n)
		for i := range dirs {
			if cfg.IDs[i]%2 == 0 {
				dirs[i] = ring.Clockwise
			} else {
				dirs[i] = ring.Anticlockwise
			}
		}
		base := simulate(t, cfg, dirs)

		rot, refl := rng.Intn(n), rng.Intn(2) == 1
		m := canon.Map{N: n, Rotation: rot, Reflected: refl}
		tcfg := mustTransform(t, cfg, rot, refl)
		tdirs := make([]ring.Direction, n)
		for j := 0; j < n; j++ {
			d := dirs[m.OrigIndex(j)]
			if refl {
				d = d.Opposite()
			}
			tdirs[j] = d
		}
		got := simulate(t, tcfg, tdirs)

		circ := float64(cfg.Circ)
		anchor := float64(cfg.Positions[rot])
		for j := 0; j < n; j++ {
			a := m.OrigIndex(j)
			if got.Collisions[j] != base.Collisions[a] {
				t.Fatalf("trial %d agent %d: collisions %d != %d", trial, j, got.Collisions[j], base.Collisions[a])
			}
			if math.Abs(got.FirstColl[j]-base.FirstColl[a]) > 1e-6 {
				t.Fatalf("trial %d agent %d: first collision %v != %v", trial, j, got.FirstColl[j], base.FirstColl[a])
			}
			// Final positions transport through the frame map.
			var want float64
			if refl {
				want = math.Mod(anchor-base.Final[a]+2*circ, circ)
			} else {
				want = math.Mod(base.Final[a]-anchor+2*circ, circ)
			}
			diff := math.Abs(got.Final[j] - want)
			if diff > 1e-6 && math.Abs(diff-circ) > 1e-6 {
				t.Fatalf("trial %d agent %d: final %v, want %v", trial, j, got.Final[j], want)
			}
		}
	}
}

func simulate(t *testing.T, cfg engine.Config, dirs []ring.Direction) *physics.Result {
	t.Helper()
	pos := make([]float64, len(cfg.Positions))
	for i, p := range cfg.Positions {
		pos[i] = float64(p)
	}
	res, err := physics.SimulateRound(float64(cfg.Circ), pos, dirs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func BenchmarkCanonicalize(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := netgen.MustGenerate(netgen.Options{N: n, Seed: 1, Model: ring.Perceptive, MixedChirality: true, ForceSplitChirality: true})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := canon.Canonicalize(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
