package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ringsym/internal/ring"
)

// The tests in this file pin the scheduler: leap execution against the
// split-batch oracle (export_test.go), the pooled arena's release, the abort
// channel, budget exhaustion, panic containment, cancellation and the guard
// against malformed hand-written machines.

// TestFSMSchedulerEquivalence is the randomized differential test of the
// scheduler: generated mixed-op scripts across all three models, both
// chirality regimes and both parities, executed with leap execution and under
// the split-batch oracle, with byte-identical traces, equal round counts and
// the oracle's crossings-equal-rounds invariant.
func TestFSMSchedulerEquivalence(t *testing.T) {
	equivalenceModels(t, 4242, func(t *testing.T, trial int, seed int64, cfg Config) {
		const ops = 12
		if msg := leapMatchesPerRound(cfg, seed, ops, SplitBatches(scriptMachine(seed, ops))); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	})
}

// scriptedBatches is a deterministic pseudo-random direction script derived
// from the agent's identity, played as leap batches: the first half as one
// YieldSchedule, then each maximal run of equal directions as one
// YieldRoundN.  Agents use different round counts, so finished agents
// exercise the default-direction path; the output is the full observation
// trace plus the final displacement and round count.
func scriptedBatches(model ring.Model, rounds int) func(a *Agent) *Proto[[]Observation] {
	return func(a *Agent) *Proto[[]Observation] {
		myRounds := rounds + a.ID()%5
		state := uint64(a.ID()*2654435761 + 12345)
		dirs := make([]ring.Direction, myRounds)
		for i := range dirs {
			state = state*6364136223846793005 + 1442695040888963407
			switch {
			case model.AllowsIdle() && state%5 == 0:
				dirs[i] = ring.Idle
			case state%2 == 0:
				dirs[i] = ring.Clockwise
			default:
				dirs[i] = ring.Anticlockwise
			}
		}
		return NewProto(func(done func([]Observation, error) (Yield, Cont)) (Yield, Cont) {
			var trace []Observation
			var next func(i int) (Yield, Cont)
			next = func(i int) (Yield, Cont) {
				if i == len(dirs) {
					trace = append(trace, Observation{Dist: a.Displacement(), Coll: int64(a.RoundsUsed())})
					return done(trace, nil)
				}
				k, y := len(dirs)/2, Yield{}
				if i == 0 {
					y = a.YieldSchedule(dirs[:k])
				} else {
					for k = 1; i+k < len(dirs) && dirs[i+k] == dirs[i]; k++ {
					}
					y = a.YieldRoundN(dirs[i], k)
				}
				return y, func(in Resume) (Yield, Cont) {
					trace = append(trace, in.Obs...)
					return next(i + k)
				}
			}
			return next(0)
		})
	}
}

// TestDirectDispatchMatchesLegacy runs the same scripted batches with leap
// execution and under the per-round split-batch oracle and demands identical
// observation traces, displacements and round counts across models,
// chirality regimes and parities.
func TestDirectDispatchMatchesLegacy(t *testing.T) {
	chir6 := []bool{true, false, false, true, false, true}
	for _, tc := range []struct {
		name  string
		model ring.Model
		chir  []bool
		circ  int64
		pos   []int64
	}{
		{"basic-common", ring.Basic, nil, 1000, []int64{0, 100, 300, 600, 800}},
		{"basic-mixed", ring.Basic, []bool{true, false, true, false, true}, 1000, []int64{0, 100, 300, 600, 800}},
		{"lazy-mixed", ring.Lazy, chir6, 1200, []int64{0, 50, 300, 320, 600, 1000}},
		{"perceptive-mixed", ring.Perceptive, chir6, 1200, []int64{0, 50, 300, 320, 600, 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Network {
				n := len(tc.pos)
				ids := make([]int, n)
				for i := range ids {
					ids[i] = 2*i + 1
				}
				nw, err := New(Config{
					Model: tc.model, Circ: tc.circ, Positions: tc.pos,
					IDs: ids, IDBound: 4 * n, Chirality: tc.chir,
				})
				if err != nil {
					t.Fatal(err)
				}
				return nw
			}
			leapNw, splitNw := build(), build()
			leap, errL := run(leapNw, scriptedBatches(tc.model, 20))
			split, errS := run(splitNw, SplitBatches(scriptedBatches(tc.model, 20)))
			if errL != nil || errS != nil {
				t.Fatalf("errors: leap=%v split=%v", errL, errS)
			}
			if leap.Rounds != split.Rounds {
				t.Fatalf("rounds: leap=%d split=%d", leap.Rounds, split.Rounds)
			}
			for i := range leap.Outputs {
				a, b := leap.Outputs[i], split.Outputs[i]
				if len(a) != len(b) {
					t.Fatalf("agent %d trace length: leap=%d split=%d", i, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("agent %d entry %d: leap=%+v split=%+v", i, j, a[j], b[j])
					}
				}
			}
			if leapNw.Crossings() >= leapNw.Rounds() || splitNw.Crossings() != splitNw.Rounds() {
				t.Fatalf("crossings: leap %d for %d rounds, split %d for %d rounds",
					leapNw.Crossings(), leapNw.Rounds(), splitNw.Crossings(), splitNw.Rounds())
			}
		})
	}
}

// TestPooledArenaCarriesNothing pins release: one network is driven through
// three failing runs — cancelled mid-protocol, a panicking machine, an
// exceeded round budget — and after each one the arenas in the pool hold no
// machine, step error, pending batch or network, and the network, Reset,
// runs exactly like a fresh one.  Two goroutines run it at once, each with
// its own network, so arenas move between goroutines under -race.
func TestPooledArenaCarriesNothing(t *testing.T) {
	failures := []struct {
		name  string
		edit  func(cfg *Config)
		build func(ctx context.Context, cancel context.CancelFunc) func(a *Agent) *Proto[struct{}]
		want  error
	}{
		{"cancelled", func(*Config) {}, func(_ context.Context, cancel context.CancelFunc) func(a *Agent) *Proto[struct{}] {
			return func(a *Agent) *Proto[struct{}] {
				return forever(a, func() {
					if a.RoundsUsed() == 3 {
						cancel()
					}
				})
			}
		}, context.Canceled},
		{"panic", func(*Config) {}, func(context.Context, context.CancelFunc) func(a *Agent) *Proto[struct{}] {
			return func(a *Agent) *Proto[struct{}] {
				return perRound(a, func(i int) (ring.Direction, bool) {
					if i == 4 && a.ID() == a.nw.IDOf(0) {
						panic("machine meltdown")
					}
					return ring.Clockwise, i < 8
				}, nil, func() struct{} { return struct{}{} })
			}
		}, ErrProtocolPanic},
		{"max rounds", func(cfg *Config) { cfg.MaxRounds = 5 }, func(context.Context, context.CancelFunc) func(a *Agent) *Proto[struct{}] {
			return func(a *Agent) *Proto[struct{}] { return forever(a, nil) }
		}, ErrMaxRoundsExceed},
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cfg := leapTestConfig(rand.New(rand.NewSource(seed)), ring.Perceptive, seed%2 == 1, true)
			nw, err := New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for _, f := range failures {
				failing := cfg
				f.edit(&failing)
				if err := nw.Reset(failing); err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				_, err := Run(ctx, nw, f.build(ctx, cancel))
				cancel()
				if !errors.Is(err, f.want) {
					t.Errorf("%s: got %v, want %v", f.name, err, f.want)
					return
				}
				if msg := pooledArenaLeftovers(); msg != "" {
					t.Errorf("after the %s run: %s", f.name, msg)
				}
				if err := nw.Reset(cfg); err != nil {
					t.Error(err)
					return
				}
				fresh, err := New(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				const ops = 9
				got, errG := run(nw, scriptMachine(seed, ops))
				want, errW := run(fresh, scriptMachine(seed, ops))
				if errG != nil || errW != nil {
					t.Errorf("after the %s run: errors reset=%v fresh=%v", f.name, errG, errW)
					return
				}
				if got.Rounds != want.Rounds {
					t.Errorf("after the %s run: rounds reset %d, fresh %d", f.name, got.Rounds, want.Rounds)
				}
				for i := range want.Outputs {
					if !got.Outputs[i].equal(want.Outputs[i]) {
						t.Errorf("after the %s run: agent %d differs from a fresh network's", f.name, i)
					}
				}
			}
		}(int64(17 + g))
	}
	wg.Wait()
}

// pooledArenaLeftovers borrows an arena from the pool, describes anything a
// finished run left in it, and returns it.
func pooledArenaLeftovers() string {
	b := arenaPool.Get().(*arena)
	defer arenaPool.Put(b)
	if b.x.nw != nil {
		return "the arena still references a network"
	}
	for i := range b.machines {
		switch {
		case b.machines[i] != nil:
			return fmt.Sprintf("machine %d survived", i)
		case b.stepErr[i] != nil:
			return fmt.Sprintf("step error %d survived: %v", i, b.stepErr[i])
		case !reflect.ValueOf(b.x.pend[i]).IsZero():
			return fmt.Sprintf("pending batch %d survived: %+v", i, b.x.pend[i])
		}
	}
	return ""
}

// TestFSMValidationAborts pins the abort channel: invalid yield parameters
// terminate the machine with the builders' error values, without consuming
// rounds.
func TestFSMValidationAborts(t *testing.T) {
	cases := []struct {
		name  string
		yield func(a *Agent) Yield
		want  error
	}{
		{"zero count", func(a *Agent) Yield { return a.YieldRoundN(ring.Clockwise, 0) }, ring.ErrBadRoundCount},
		{"idle in basic", func(a *Agent) Yield { return a.YieldRound(ring.Idle) }, ErrIdleNotAllowed},
		{"empty schedule", func(a *Agent) Yield { return a.YieldSchedule(nil) }, ring.ErrBadRoundCount},
		{"negative sum count", func(a *Agent) Yield { return a.YieldRoundSum(ring.Clockwise, -1) }, ring.ErrBadRoundCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := New(testConfig(ring.Basic, nil))
			if err != nil {
				t.Fatal(err)
			}
			_, err = run(nw, func(a *Agent) *Proto[struct{}] {
				return NewProto(func(done func(struct{}, error) (Yield, Cont)) (Yield, Cont) {
					return tc.yield(a), func(Resume) (Yield, Cont) { return done(struct{}{}, nil) }
				})
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if nw.Rounds() != 0 {
				t.Fatalf("aborted validation consumed %d rounds", nw.Rounds())
			}
		})
	}

	// RoundUntil's target range check.
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(nw, func(a *Agent) *Proto[struct{}] {
		return NewProto(func(done func(struct{}, error) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRoundUntil(ring.Clockwise, -2, 3), func(Resume) (Yield, Cont) { return done(struct{}{}, nil) }
		})
	}); err == nil {
		t.Fatal("negative RoundUntil target accepted")
	}
}

// TestFSMBudgetExhaustion pins ErrMaxRoundsExceed on the scheduler: the clamp
// executes exactly the budgeted rounds.
func TestFSMBudgetExhaustion(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.MaxRounds = 5
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(nw, func(a *Agent) *Proto[struct{}] {
		return NewProto(func(done func(struct{}, error) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRoundN(ring.Clockwise, 9), func(in Resume) (Yield, Cont) {
				return done(struct{}{}, nil)
			}
		})
	})
	if !errors.Is(err, ErrMaxRoundsExceed) {
		t.Fatalf("got %v, want ErrMaxRoundsExceed", err)
	}
	if nw.Rounds() != 5 {
		t.Fatalf("state executed %d rounds, want the full budget of 5", nw.Rounds())
	}
}

// TestFSMStepPanic pins panic containment: a panicking continuation fails its
// own machine with ErrProtocolPanic while the other machines finish normally.
func TestFSMStepPanic(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(nw, func(a *Agent) *Proto[int] {
		return NewProto(func(done func(int, error) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRound(ring.Clockwise), func(in Resume) (Yield, Cont) {
				if a.ID() == 1 {
					panic("machine meltdown")
				}
				return done(a.RoundsUsed(), nil)
			}
		})
	})
	if !errors.Is(err, ErrProtocolPanic) {
		t.Fatalf("got %v, want ErrProtocolPanic", err)
	}
	for i, used := range res.Outputs {
		if nw.IDOf(i) != 1 && used != 1 {
			t.Errorf("agent %d: rounds used %d, want 1", i, used)
		}
	}
}

// TestFSMCancellation pins cancellation granularity: a cancel between
// crossings fails every still-pending machine with the context error within
// one crossing.
func TestFSMCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, nw, func(a *Agent) *Proto[struct{}] {
		return NewProto(func(done func(struct{}, error) (Yield, Cont)) (Yield, Cont) {
			var loop func(in Resume) (Yield, Cont)
			loop = func(in Resume) (Yield, Cont) {
				if a.RoundsUsed() >= 3 && a.ID() == 1 {
					cancel() // fires mid-run, from inside the scheduler goroutine
				}
				return a.YieldRound(ring.Clockwise), loop
			}
			return loop(Resume{})
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// malformedMachine yields a continuation without a batch, which Proto forbids
// and the scheduler must reject rather than wedge.
type malformedMachine struct{ stepped bool }

func (m *malformedMachine) Step(Resume) (Yield, bool) {
	if m.stepped {
		return Yield{}, true
	}
	m.stepped = true
	return Yield{}, false
}

// TestFSMMalformedYield pins the scheduler's guard against hand-written
// machines that yield without a round batch.
func TestFSMMalformedYield(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	b := new(arena)
	b.prepare(nw)
	if err := nw.beginRun(); err != nil {
		t.Fatal(err)
	}
	defer nw.endRun()
	for i := range b.machines {
		b.machines[i] = &malformedMachine{}
	}
	if err := b.run(context.Background(), nw); err != nil {
		t.Fatalf("run-level error %v, want per-machine step errors", err)
	}
	for i, err := range b.stepErr {
		if err == nil {
			t.Errorf("machine %d: malformed yield accepted", i)
		}
	}
}
