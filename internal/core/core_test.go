package core

import (
	"context"
	"errors"
	"testing"

	"ringsym/internal/engine"
	"ringsym/internal/engine/enginetest"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// objectiveDir translates a frame direction reported by an agent back into
// the global frame, given the agent's flipped state and chirality.
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

// rotationOf computes the rotation index of an assignment of objective
// directions.
func rotationOf(dirs []ring.Direction) int {
	return ring.RotationIndex(len(dirs), dirs)
}

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

func TestIDBit(t *testing.T) {
	if IDBit(5, 1) != 1 || IDBit(5, 2) != 0 || IDBit(5, 3) != 1 || IDBit(5, 4) != 0 {
		t.Error("IDBit wrong for 5")
	}
}

func TestRotationClassString(t *testing.T) {
	for _, c := range []RotationClass{RotUnknown, RotZero, RotHalf, RotBelowHalf, RotAboveHalf} {
		if c.String() == "" {
			t.Error("empty string")
		}
	}
	if RotZero.Nontrivial() || RotHalf.Nontrivial() || !RotBelowHalf.Nontrivial() || !RotAboveHalf.Nontrivial() {
		t.Error("Nontrivial misclassifies")
	}
}

// TestFrameRoundTranslation checks that a flipped frame reports distances in
// its own clockwise direction.
func TestFrameRoundTranslation(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 6, Seed: 1, Model: ring.Perceptive})
	type out struct {
		plain, flipped int64
	}
	res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		f := NewFrame(a)
		// A fixed asymmetric rule so that the rotation index is nonzero.
		dir := ring.Anticlockwise
		if a.ID()%2 == 1 {
			dir = ring.Clockwise
		}
		return f.RoundStep(dir, func(obs1 engine.Observation) (engine.Yield, engine.Cont) {
			// Undo the round so the next one starts from the same
			// configuration.
			return f.RoundStep(dir.Opposite(), func(engine.Observation) (engine.Yield, engine.Cont) {
				f.Flip()
				// In the flipped frame the opposite frame direction denotes
				// the same objective direction, so the displacement is the
				// same but must be reported complemented.
				return f.RoundStep(dir.Opposite(), func(obs2 engine.Observation) (engine.Yield, engine.Cont) {
					return k(out{obs1.Dist, obs2.Dist})
				})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	full := nw.FullCircle()
	for i, o := range res.Outputs {
		// Same objective movement, so the frame-relative distances must be
		// complementary (unless zero).
		if o.plain == 0 && o.flipped == 0 {
			continue
		}
		if o.plain+o.flipped != full {
			t.Errorf("agent %d: plain %d + flipped %d != full %d", i, o.plain, o.flipped, full)
		}
	}
}

// TestClassifyRotation drives assignments with known rotation indices and
// checks the classification and the restore option.
func TestClassifyRotation(t *testing.T) {
	const n = 8
	cases := []struct {
		name      string
		clockwise int // number of agents (by ID order) moving objectively clockwise
		nontriv   bool
		class     RotationClass // expected class for correctly-oriented agents; RotUnknown = skip exact check
	}{
		{"rotation 0", 4, false, RotZero},
		{"rotation n/2", 6, false, RotHalf}, // (6-2) mod 8 = 4 = n/2
		{"rotation 2", 5, true, RotBelowHalf},
		{"rotation 6", 1, true, RotAboveHalf}, // (1-7) mod 8 = 2... see below
	}
	// Note: (1-7) mod 8 = -6 mod 8 = 2, so the last case is actually
	// rotation 2 as well; adjust expectation accordingly.
	cases[3].class = RotBelowHalf

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := newNetwork(t, netgen.Options{N: n, IDBound: n, Seed: 3, Model: ring.Basic})
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(RotationClass) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				dir := ring.Anticlockwise
				if a.ID() <= tc.clockwise {
					dir = ring.Clockwise
				}
				return NewFrame(a).ClassifyRotationStep(dir, true, k)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, cls := range res.Outputs {
				if cls.Nontrivial() != tc.nontriv {
					t.Errorf("agent %d: class %v, want nontrivial=%v", i, cls, tc.nontriv)
				}
				if tc.class == RotZero || tc.class == RotHalf {
					if cls != tc.class {
						t.Errorf("agent %d: class %v, want %v", i, cls, tc.class)
					}
				}
			}
			if res.Rounds != 4 {
				t.Errorf("rounds = %d, want 4 (classification with restore)", res.Rounds)
			}
			// Restore: positions must equal the initial ones.
			init := nw.InitialPositions()
			cur := nw.CurrentPositions()
			for i := range init {
				if init[i] != cur[i] {
					t.Fatalf("positions not restored: %v vs %v", cur, init)
				}
			}
		})
	}
}

// TestNontrivialMoveOdd verifies Corollary 18 on random odd-size networks
// with and without a shared sense of direction.
func TestNontrivialMoveOdd(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for seed := int64(0); seed < 5; seed++ {
			nw := newNetwork(t, netgen.Options{
				N: 9, IDBound: 64, Seed: seed, Model: ring.Basic,
				MixedChirality: mixed, ForceSplitChirality: mixed,
			})
			type out struct {
				dir     ring.Direction
				flipped bool
			}
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				f := NewFrame(a)
				return NontrivialMoveOddStep(f, func(dir ring.Direction) (engine.Yield, engine.Cont) { return k(out{dir, f.Flipped()}) })
			})
			if err != nil {
				t.Fatalf("mixed=%v seed=%d: %v", mixed, seed, err)
			}
			dirs := make([]ring.Direction, nw.N())
			for i, o := range res.Outputs {
				dirs[i] = objectiveDir(o.dir, o.flipped, nw.ChiralityOf(i))
			}
			r := rotationOf(dirs)
			if r == 0 {
				t.Fatalf("mixed=%v seed=%d: returned assignment is trivial", mixed, seed)
			}
			if bound := nontrivialOddBound(64, 9); res.Rounds > bound {
				t.Errorf("mixed=%v seed=%d: %d rounds, want <= %d", mixed, seed, res.Rounds, bound)
			}
		}
	}
	// Clustered identifiers 1 + j·2^k with a common orientation agree on
	// their k lowest bits, so the bound is met exactly: the trivial
	// all-clockwise round, k trivial bit rounds, then bit k+1 splits them.
	for _, n := range []int{9, 17, 33} {
		for k := 0; k <= 8; k++ {
			idBound := n << k
			cfg, err := netgen.Generate(netgen.Options{N: n, IDBound: idBound, Seed: int64(k), Model: ring.Basic})
			if err != nil {
				t.Fatal(err)
			}
			for j := range cfg.IDs {
				cfg.IDs[j] = 1 + j<<k
			}
			nw, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				return NontrivialMoveOddStep(NewFrame(a), k)
			})
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if rotationOf(res.Outputs) == 0 {
				t.Fatalf("n=%d k=%d: returned assignment is trivial", n, k)
			}
			if want := nontrivialOddBound(idBound, n); want != k+2 || res.Rounds != want {
				t.Errorf("n=%d k=%d: %d rounds, bound %d, want exactly %d", n, k, res.Rounds, want, k+2)
			}
		}
	}
}

// nontrivialOddBound is Corollary 18's round bound for NontrivialMoveOddStep:
// 2 + max{k ≥ 0 : ⌈N/2^k⌉ ≥ n}.
func nontrivialOddBound(idBound, n int) int {
	k := 0
	for (idBound+(1<<(k+1))-1)>>(k+1) >= n {
		k++
	}
	return 2 + k
}

// TestNontrivialMoveEven verifies the Theorem 27 substitute on even-size
// networks with adversarially balanced orientations.
func TestNontrivialMoveEven(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		nw := newNetwork(t, netgen.Options{
			N: 8, IDBound: 64, Seed: seed, Model: ring.Basic,
			MixedChirality: true, ForceSplitChirality: true,
		})
		type out struct {
			dir     ring.Direction
			flipped bool
		}
		res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			f := NewFrame(a)
			return NontrivialMoveEvenStep(f, 99, func(dir ring.Direction) (engine.Yield, engine.Cont) { return k(out{dir, f.Flipped()}) })
		})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		dirs := make([]ring.Direction, nw.N())
		for i, o := range res.Outputs {
			dirs[i] = objectiveDir(o.dir, o.flipped, nw.ChiralityOf(i))
		}
		r := rotationOf(dirs)
		if r == 0 || r == nw.N()/2 {
			t.Fatalf("seed=%d: rotation %d is trivial", seed, r)
		}
	}
}

// TestDirectionAgreement checks Algorithm 1: after agreement every agent's
// frame refers to the same objective direction.
func TestDirectionAgreement(t *testing.T) {
	for _, parityOdd := range []bool{true, false} {
		n := 8
		if parityOdd {
			n = 9
		}
		for seed := int64(0); seed < 5; seed++ {
			nw := newNetwork(t, netgen.Options{
				N: n, IDBound: 32, Seed: seed, Model: ring.Basic,
				MixedChirality: true, ForceSplitChirality: true,
			})
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				f := NewFrame(a)
				agree := func(dir ring.Direction) (engine.Yield, engine.Cont) {
					return DirectionAgreementStep(f, dir, func(ring.Direction) (engine.Yield, engine.Cont) { return k(f.Flipped()) })
				}
				if a.NParity() == engine.ParityOdd {
					return NontrivialMoveOddStep(f, agree)
				}
				return NontrivialMoveEvenStep(f, 7, agree)
			})
			if err != nil {
				t.Fatalf("odd=%v seed=%d: %v", parityOdd, seed, err)
			}
			// frame clockwise == global clockwise  iff  chirality != flipped.
			first := nw.ChiralityOf(0) != res.Outputs[0]
			for i := 1; i < nw.N(); i++ {
				if (nw.ChiralityOf(i) != res.Outputs[i]) != first {
					t.Fatalf("odd=%v seed=%d: agents disagree on direction after DirAgr", parityOdd, seed)
				}
			}
		}
	}
}

// TestDirectionAgreementOdd checks Proposition 17.
func TestDirectionAgreementOdd(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		nw := newNetwork(t, netgen.Options{
			N: 7, IDBound: 32, Seed: 11, Model: ring.Basic,
			MixedChirality: mixed, ForceSplitChirality: mixed,
		})
		res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			f := NewFrame(a)
			return DirectionAgreementOddStep(f, func() (engine.Yield, engine.Cont) { return k(f.Flipped()) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > 3 {
			t.Errorf("mixed=%v: %d rounds, want <= 3", mixed, res.Rounds)
		}
		first := nw.ChiralityOf(0) != res.Outputs[0]
		for i := 1; i < nw.N(); i++ {
			if (nw.ChiralityOf(i) != res.Outputs[i]) != first {
				t.Fatalf("mixed=%v: agents disagree after Proposition 17", mixed)
			}
		}
	}
}

// TestEmptinessTest covers Lemma 12 in every model and parity.
func TestEmptinessTest(t *testing.T) {
	type setting struct {
		name   string
		model  ring.Model
		n      int
		maxRds int
	}
	settings := []setting{
		{"lazy even", ring.Lazy, 8, 1},
		{"lazy odd", ring.Lazy, 9, 1},
		{"perceptive even", ring.Perceptive, 8, 1},
		{"basic odd", ring.Basic, 9, 1},
		{"basic even", ring.Basic, 8, 8},
	}
	queries := []struct {
		name     string
		contains func(id, n int) bool
		want     func(ids []int) bool
	}{
		{"empty set", func(id, n int) bool { return false }, func([]int) bool { return false }},
		{"all ids", func(id, n int) bool { return true }, func([]int) bool { return true }},
		{"only id 1", func(id, n int) bool { return id == 1 }, func(ids []int) bool {
			for _, v := range ids {
				if v == 1 {
					return true
				}
			}
			return false
		}},
		{"half the agents", func(id, n int) bool { return id%2 == 0 }, func(ids []int) bool {
			for _, v := range ids {
				if v%2 == 0 {
					return true
				}
			}
			return false
		}},
		{"ids above 1000", func(id, n int) bool { return id > 1000 }, func(ids []int) bool {
			for _, v := range ids {
				if v > 1000 {
					return true
				}
			}
			return false
		}},
		{"absent ids only", func(id, n int) bool { return id == 1999 || id == 1998 }, func(ids []int) bool {
			for _, v := range ids {
				if v == 1999 || v == 1998 {
					return true
				}
			}
			return false
		}},
	}
	for _, s := range settings {
		for _, q := range queries {
			t.Run(s.name+"/"+q.name, func(t *testing.T) {
				nw := newNetwork(t, netgen.Options{N: s.n, IDBound: 2000, Seed: 5, Model: s.model})
				ids := make([]int, nw.N())
				for i := range ids {
					ids[i] = nw.IDOf(i)
				}
				want := q.want(ids)
				res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
					return EmptinessTestStep(NewFrame(a), q.contains(a.ID(), s.n), k)
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, got := range res.Outputs {
					if got != want {
						t.Errorf("agent %d: got %v, want %v", i, got, want)
					}
				}
				maxRounds := s.maxRds
				if s.model == ring.Basic && s.n%2 == 0 {
					maxRounds = 1 + 11 // 1 + bits(2000)
				}
				if res.Rounds > maxRounds {
					t.Errorf("rounds = %d, want <= %d", res.Rounds, maxRounds)
				}
			})
		}
	}
}

// TestLeaderElectCommonSense checks Lemma 13: the maximum identifier wins.
func TestLeaderElectCommonSense(t *testing.T) {
	for _, model := range []ring.Model{ring.Basic, ring.Lazy, ring.Perceptive} {
		for _, n := range []int{7, 8} {
			nw := newNetwork(t, netgen.Options{N: n, IDBound: 128, Seed: 17, Model: model})
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				return LeaderElectCommonSenseStep(NewFrame(a), k)
			})
			if err != nil {
				t.Fatalf("model=%v n=%d: %v", model, n, err)
			}
			maxID, leaders := 0, 0
			for i := 0; i < nw.N(); i++ {
				if nw.IDOf(i) > maxID {
					maxID = nw.IDOf(i)
				}
			}
			for i, isLeader := range res.Outputs {
				if isLeader {
					leaders++
					if nw.IDOf(i) != maxID {
						t.Errorf("model=%v n=%d: leader has ID %d, max is %d", model, n, nw.IDOf(i), maxID)
					}
				}
			}
			if leaders != 1 {
				t.Errorf("model=%v n=%d: %d leaders", model, n, leaders)
			}
		}
	}
}

// TestNontrivialMoveFromLeader checks Lemma 10.
func TestNontrivialMoveFromLeader(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		nw := newNetwork(t, netgen.Options{N: 8, IDBound: 64, Seed: seed, Model: ring.Basic})
		maxID := 0
		for i := 0; i < nw.N(); i++ {
			if nw.IDOf(i) > maxID {
				maxID = nw.IDOf(i)
			}
		}
		type out struct {
			dir     ring.Direction
			flipped bool
		}
		res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			f := NewFrame(a)
			return NontrivialMoveFromLeaderStep(f, a.ID() == maxID, func(dir ring.Direction) (engine.Yield, engine.Cont) { return k(out{dir, f.Flipped()}) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > 4 {
			t.Errorf("rounds = %d, want <= 4", res.Rounds)
		}
		dirs := make([]ring.Direction, nw.N())
		for i, o := range res.Outputs {
			dirs[i] = objectiveDir(o.dir, o.flipped, nw.ChiralityOf(i))
		}
		if r := rotationOf(dirs); r == 0 || r == nw.N()/2 {
			t.Fatalf("seed %d: returned rotation %d is trivial", seed, r)
		}
	}
}

// TestBroadcastBits checks the global rotation-signalling broadcast channel.
func TestBroadcastBits(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 6, IDBound: 32, Seed: 21, Model: ring.Basic})
	maxID := 0
	for i := 0; i < nw.N(); i++ {
		if nw.IDOf(i) > maxID {
			maxID = nw.IDOf(i)
		}
	}
	const payload = uint64(0b1011001110)
	res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return BroadcastBitsStep(NewFrame(a), a.ID() == maxID, payload, 10, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res.Outputs {
		if got != payload {
			t.Errorf("agent %d received %b, want %b", i, got, payload)
		}
	}
	if res.Rounds != 10 {
		t.Errorf("rounds = %d, want 10", res.Rounds)
	}
	// Parameter validation.
	if _, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return BroadcastBitsStep(NewFrame(a), false, 0, 0, k)
	}); err == nil {
		t.Error("bits=0 accepted")
	}
}

// TestCoordinateAllSettings runs the three coordination pipelines across
// models, parities and orientation mixes and checks the three outcomes.
func TestCoordinateAllSettings(t *testing.T) {
	type setting struct {
		name     string
		model    ring.Model
		n        int
		mixed    bool
		pipeline CoordinateFunc
	}
	settings := []setting{
		{"basic odd mixed", ring.Basic, 9, true, CoordinateOddStep},
		{"basic even mixed", ring.Basic, 8, true, CoordinateEvenStep},
		{"lazy even mixed", ring.Lazy, 10, true, CoordinateEvenStep},
		{"perceptive odd mixed", ring.Perceptive, 7, true, CoordinateOddStep},
		{"perceptive even mixed", ring.Perceptive, 8, true, CoordinateEvenStep},
		{"basic even common sense", ring.Basic, 8, false, CoordinateCommonSenseStep},
		{"lazy odd common sense", ring.Lazy, 9, false, CoordinateCommonSenseStep},
		{"perceptive even common sense", ring.Perceptive, 8, false, CoordinateCommonSenseStep},
	}
	for _, s := range settings {
		t.Run(s.name, func(t *testing.T) {
			nw := newNetwork(t, netgen.Options{
				N: s.n, IDBound: 64, Seed: 23, Model: s.model,
				MixedChirality: s.mixed, ForceSplitChirality: s.mixed,
			})
			type out struct {
				leader  bool
				dir     ring.Direction
				flipped bool
			}
			res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				return s.pipeline(a, 41, func(c *Coordination) (engine.Yield, engine.Cont) {
					return k(out{c.IsLeader, c.NontrivialDir, c.Frame.Flipped()})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			leaders := 0
			dirs := make([]ring.Direction, nw.N())
			var agreeRef bool
			for i, o := range res.Outputs {
				if o.leader {
					leaders++
				}
				dirs[i] = objectiveDir(o.dir, o.flipped, nw.ChiralityOf(i))
				frameIsGlobal := nw.ChiralityOf(i) != o.flipped
				if i == 0 {
					agreeRef = frameIsGlobal
				} else if frameIsGlobal != agreeRef {
					t.Errorf("agent %d disagrees on the common direction", i)
				}
			}
			if leaders != 1 {
				t.Errorf("%d leaders, want exactly 1", leaders)
			}
			if r := rotationOf(dirs); r == 0 || r == nw.N()/2 {
				t.Errorf("coordination returned a trivial move (rotation %d)", r)
			}
		})
	}
}

// TestCoordinateRoundAccounting sanity-checks the per-stage round counters
// for the odd-n pipeline.
func TestCoordinateRoundAccounting(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 9, IDBound: 64, Seed: 2, Model: ring.Basic, MixedChirality: true, ForceSplitChirality: true})
	res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return CoordinateOddStep(a, 3, k)
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Outputs[0]
	if c.RoundsAgreement != 2 {
		t.Errorf("direction agreement rounds = %d, want 2", c.RoundsAgreement)
	}
	if c.RoundsLeader != 7 { // ceil(log2 64) = 7 bits for IDBound 64 -> Bits(64)=7
		t.Errorf("leader election rounds = %d, want 7", c.RoundsLeader)
	}
	if c.RoundsNontrivial < 1 || c.RoundsNontrivial > 8 {
		t.Errorf("nontrivial move rounds = %d", c.RoundsNontrivial)
	}
	total := c.RoundsNontrivial + c.RoundsAgreement + c.RoundsLeader
	if total != res.Rounds {
		t.Errorf("stage rounds %d != total %d", total, res.Rounds)
	}
}

func TestNontrivialMoveSearchExhausted(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 8, IDBound: 32, Seed: 4, Model: ring.Basic})
	_, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		// An empty family can never produce a nontrivial move.
		fam, ferr := newEmptyFamily(a.IDBound())
		if ferr != nil {
			return engine.Abort(ferr)
		}
		return NontrivialMoveSearchStep(NewFrame(a), fam, false, func(_ ring.Direction, set int) (engine.Yield, engine.Cont) { return k(set) })
	})
	if !errors.Is(err, ErrNoNontrivialMove) {
		t.Fatalf("got %v, want ErrNoNontrivialMove", err)
	}
}

// newEmptyFamily builds a zero-length set family for failure-path tests.
func newEmptyFamily(universe int) (emptyFamily, error) {
	if universe <= 0 {
		return emptyFamily{}, errors.New("bad universe")
	}
	return emptyFamily{universe}, nil
}

type emptyFamily struct{ universe int }

func (e emptyFamily) Len() int               { return 0 }
func (e emptyFamily) Universe() int          { return e.universe }
func (e emptyFamily) Contains(int, int) bool { return false }
