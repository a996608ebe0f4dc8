package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ringsym/internal/ring"
)

// run is Run under a background context.
func run[T any](nw *Network, build func(a *Agent) *Proto[T]) (*Result[T], error) {
	return Run(context.Background(), nw, build)
}

// perRound is the machine of a per-round loop: before round i, next returns
// the agent's direction, or ok = false to finish with result(); after each
// round, seen (when non-nil) receives the observation.
func perRound[T any](a *Agent, next func(i int) (dir ring.Direction, ok bool), seen func(Observation), result func() T) *Proto[T] {
	return NewProto(func(done func(T, error) (Yield, Cont)) (Yield, Cont) {
		i := 0
		var loop Cont
		loop = func(in Resume) (Yield, Cont) {
			if i > 0 && seen != nil {
				seen(in.Obs[0])
			}
			dir, ok := next(i)
			if !ok {
				return done(result(), nil)
			}
			i++
			return a.YieldRound(dir), loop
		}
		return loop(Resume{})
	})
}

// constant returns a machine that finishes with v without playing a round.
func constant[T any](v T) *Proto[T] {
	return NewProto(func(done func(T, error) (Yield, Cont)) (Yield, Cont) { return done(v, nil) })
}

func testConfig(model ring.Model, chirality []bool) Config {
	return Config{
		Model:     model,
		Circ:      1000,
		Positions: []int64{0, 100, 300, 600, 800},
		IDs:       []int{7, 3, 12, 9, 1},
		IDBound:   16,
		Chirality: chirality,
	}
}

func TestNewValidation(t *testing.T) {
	base := testConfig(ring.Basic, nil)

	bad := base
	bad.IDs = []int{7, 3, 12, 9}
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("short IDs: got %v", err)
	}

	bad = base
	bad.IDs = []int{7, 3, 12, 9, 3}
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("duplicate IDs: got %v", err)
	}

	bad = base
	bad.IDs = []int{7, 3, 12, 9, 17}
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("out-of-range ID: got %v", err)
	}

	bad = base
	bad.IDBound = 3
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("IDBound < n: got %v", err)
	}

	bad = base
	bad.Chirality = []bool{true, false}
	if _, err := New(bad); !errors.Is(err, ErrBadChirality) {
		t.Errorf("bad chirality: got %v", err)
	}

	bad = base
	bad.Positions = []int64{0, 100}
	bad.IDs = []int{7, 3}
	if _, err := New(bad); err == nil {
		t.Error("n<=4 accepted without AllowSmall")
	}

	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	nw, err := New(testConfig(ring.Perceptive, []bool{true, false, true, false, true}))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 5 || nw.Model() != ring.Perceptive || nw.Circ() != 1000 || nw.FullCircle() != 2000 {
		t.Error("basic accessors wrong")
	}
	if nw.IDOf(2) != 12 || nw.IndexOfID(12) != 2 || nw.IndexOfID(999) != -1 {
		t.Error("ID accessors wrong")
	}
	if nw.ChiralityOf(0) != true || nw.ChiralityOf(1) != false {
		t.Error("chirality accessors wrong")
	}
	p := nw.InitialPositions()
	p[0] = 42
	if nw.InitialPositions()[0] != 0 {
		t.Error("InitialPositions aliases internal state")
	}
	if got := nw.CurrentPositions(); got[3] != 600 {
		t.Errorf("CurrentPositions = %v", got)
	}
	if got := nw.Gaps(); got[0] != 100 {
		t.Errorf("Gaps = %v", got)
	}
}

// TestSingleRoundObservations checks dist() translation into each agent's own
// frame for a mixed-chirality network.
func TestSingleRoundObservations(t *testing.T) {
	chir := []bool{true, true, false, true, false}
	nw, err := New(testConfig(ring.Perceptive, chir))
	if err != nil {
		t.Fatal(err)
	}
	// Every agent chooses its own clockwise; flipped agents therefore move
	// objectively anticlockwise: nC=3, nA=2, rotation 1.
	res, err := run(nw, func(a *Agent) *Proto[Observation] {
		var obs Observation
		return perRound(a, func(i int) (ring.Direction, bool) { return ring.Clockwise, i < 1 },
			func(o Observation) { obs = o }, func() Observation { return obs })
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	// Objective clockwise displacements (half-ticks): agent i moves to the
	// next slot: gaps 100,200,300,200,200 -> dist 200,400,600,400,400.
	wantObjective := []int64{200, 400, 600, 400, 400}
	for i, obs := range res.Outputs {
		want := wantObjective[i]
		if !chir[i] {
			want = nw.FullCircle() - want
		}
		if obs.Dist != want {
			t.Errorf("agent %d dist = %d, want %d", i, obs.Dist, want)
		}
		if !obs.Collided {
			t.Errorf("agent %d should have collided", i)
		}
	}
	if nw.Rounds() != 1 {
		t.Errorf("network rounds = %d", nw.Rounds())
	}
}

func TestAgentIdentityExposure(t *testing.T) {
	nw, err := New(testConfig(ring.Lazy, nil))
	if err != nil {
		t.Fatal(err)
	}
	type ident struct {
		id, bound int
		parity    Parity
		model     ring.Model
		circ      int64
	}
	res, err := run(nw, func(a *Agent) *Proto[ident] {
		return constant(ident{a.ID(), a.IDBound(), a.NParity(), a.Model(), a.FullCircle()})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out.id != nw.IDOf(i) {
			t.Errorf("agent %d id = %d", i, out.id)
		}
		if out.bound != 16 || out.parity != ParityOdd || out.model != ring.Lazy || out.circ != 2000 {
			t.Errorf("agent %d identity = %+v", i, out)
		}
	}
	if res.Rounds != 0 {
		t.Errorf("identity-only protocol used %d rounds", res.Rounds)
	}
}

func TestHiddenParity(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.HideParity = true
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(nw, func(a *Agent) *Proto[Parity] { return constant(a.NParity()) })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Outputs {
		if p != ParityUnknown {
			t.Fatalf("parity = %v, want unknown", p)
		}
	}
}

// oneRound is the machine of a single round in direction dir.
func oneRound(a *Agent, dir ring.Direction) *Proto[struct{}] {
	return perRound(a, func(i int) (ring.Direction, bool) { return dir, i < 1 }, nil, func() struct{} { return struct{}{} })
}

// forever is the machine of a protocol that plays clockwise rounds until the
// run fails; every round is reported to seen.
func forever(a *Agent, seen func()) *Proto[struct{}] {
	return perRound(a, func(int) (ring.Direction, bool) {
		if seen != nil {
			seen()
		}
		return ring.Clockwise, true
	}, nil, func() struct{} { return struct{}{} })
}

func TestIdleRejectedInBasicModel(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(nw, func(a *Agent) *Proto[struct{}] { return oneRound(a, ring.Idle) })
	if !errors.Is(err, ErrIdleNotAllowed) {
		t.Fatalf("got %v, want ErrIdleNotAllowed", err)
	}
}

func TestInvalidDirectionRejected(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(nw, func(a *Agent) *Proto[struct{}] { return oneRound(a, ring.Direction(55)) })
	if !errors.Is(err, ErrBadDirection) {
		t.Fatalf("got %v, want ErrBadDirection", err)
	}
}

func TestMaxRoundsEnforced(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.MaxRounds = 3
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(nw, func(a *Agent) *Proto[struct{}] { return forever(a, nil) })
	if !errors.Is(err, ErrMaxRoundsExceed) {
		t.Fatalf("got %v, want ErrMaxRoundsExceed", err)
	}
	if nw.Rounds() != 3 {
		t.Fatalf("rounds executed = %d, want 3", nw.Rounds())
	}
}

func TestProtocolPanicIsRecovered(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(nw, func(a *Agent) *Proto[struct{}] {
		if a.ID() != 12 {
			return oneRound(a, ring.Clockwise)
		}
		return NewProto(func(done func(struct{}, error) (Yield, Cont)) (Yield, Cont) { panic("boom") })
	})
	if !errors.Is(err, ErrProtocolPanic) {
		t.Fatalf("got %v, want ErrProtocolPanic", err)
	}
}

// TestEarlyReturningAgentGetsDefaultDirection verifies that a protocol whose
// agents finish after different numbers of rounds still completes: finished
// agents are assigned their default direction.
func TestEarlyReturningAgentGetsDefaultDirection(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(nw, func(a *Agent) *Proto[int] {
		roundsWanted := 1
		if a.ID() == 7 {
			roundsWanted = 4
		}
		return perRound(a, func(i int) (ring.Direction, bool) { return ring.Clockwise, i < roundsWanted },
			nil, a.RoundsUsed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatalf("total rounds = %d, want 4", res.Rounds)
	}
	for i, used := range res.Outputs {
		want := 1
		if nw.IDOf(i) == 7 {
			want = 4
		}
		if used != want {
			t.Errorf("agent %d used %d rounds, want %d", i, used, want)
		}
	}
}

// TestSequentialRunsShareState verifies that consecutive Run invocations
// continue from the current ring state and keep counting rounds.
func TestSequentialRunsShareState(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	one := func(a *Agent) *Proto[struct{}] { return oneRound(a, ring.Anticlockwise) }
	if _, err := run(nw, one); err != nil {
		t.Fatal(err)
	}
	res, err := run(nw, one)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("second run rounds = %d, want 1", res.Rounds)
	}
	if nw.Rounds() != 2 {
		t.Fatalf("network rounds = %d, want 2", nw.Rounds())
	}
}

func TestParityString(t *testing.T) {
	for _, p := range []Parity{ParityUnknown, ParityEven, ParityOdd} {
		if p.String() == "" {
			t.Error("empty parity string")
		}
	}
}

// TestDeterministicOutcome runs the same multi-round mixed-chirality protocol
// twice and checks that observations are identical.
func TestDeterministicOutcome(t *testing.T) {
	collect := func() [][]int64 {
		nw, err := New(testConfig(ring.Perceptive, []bool{false, true, false, true, true}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(nw, func(a *Agent) *Proto[[]int64] {
			var trace []int64
			dir := ring.Anticlockwise
			if a.ID()%2 == 0 {
				dir = ring.Clockwise
			}
			return perRound(a, func(i int) (ring.Direction, bool) {
				dir = dir.Opposite()
				return dir, i < 6
			}, func(obs Observation) { trace = append(trace, obs.Dist, obs.Coll) },
				func() []int64 { return trace })
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := collect(), collect()
	for i := range a {
		if len(a[i]) != 12 || len(a[i]) != len(b[i]) {
			t.Fatalf("agent %d trace lengths %d and %d, want 12", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("nondeterministic observation: agent %d element %d: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestConcurrentRunRejected verifies that a second Run on a Network whose
// run is still in flight fails with ErrRunInProgress instead of racing on the
// shared state.  Meaningful under -race.
func TestConcurrentRunRejected(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		_, err := run(nw, func(a *Agent) *Proto[struct{}] {
			return NewProto(func(done func(struct{}, error) (Yield, Cont)) (Yield, Cont) {
				if a.ID() == 7 {
					// Park the scheduler inside the first machine's first
					// step: the run holds the network until release.
					close(started)
					<-release
				}
				return a.YieldRound(ring.Clockwise), func(Resume) (Yield, Cont) { return done(struct{}{}, nil) }
			})
		})
		firstDone <- err
	}()
	<-started

	if _, err := run(nw, func(a *Agent) *Proto[struct{}] { return constant(struct{}{}) }); !errors.Is(err, ErrRunInProgress) {
		t.Errorf("concurrent Run: got %v, want ErrRunInProgress", err)
	}
	if err := nw.Reset(testConfig(ring.Basic, nil)); !errors.Is(err, ErrRunInProgress) {
		t.Errorf("Reset during a run: got %v, want ErrRunInProgress", err)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	// The network must be reusable once the first run finished.
	if _, err := run(nw, func(a *Agent) *Proto[struct{}] { return constant(struct{}{}) }); err != nil {
		t.Fatalf("run after release failed: %v", err)
	}
}

// TestRunContextCancellationStopsRunawayProtocol verifies that a protocol
// that would run forever is interrupted by context cancellation within a
// crossing of the cancel, with the run error wrapping context.Canceled, and
// that the network stays usable.
func TestRunContextCancellationStopsRunawayProtocol(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAfter = 10
	res, err := Run(ctx, nw, func(a *Agent) *Proto[struct{}] {
		return forever(a, func() {
			if a.ID() == 7 && a.RoundsUsed() == cancelAfter {
				cancel() // fires mid-run, from inside the scheduler goroutine
			}
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	// The cancel lands before the next crossing: the agents that had not yet
	// been stepped when it fired still play round cancelAfter+1.
	if res.Rounds > cancelAfter+1 {
		t.Errorf("run consumed %d rounds after cancellation at round %d", res.Rounds, cancelAfter)
	}
	// The network is not broken by a cancellation: it can run again.
	if _, err := run(nw, func(a *Agent) *Proto[struct{}] { return oneRound(a, ring.Clockwise) }); err != nil {
		t.Fatalf("run after cancelled run failed: %v", err)
	}
}

// TestRunContextPreCancelled verifies that an already-cancelled context
// prevents the run from starting at all.
func TestRunContextPreCancelled(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	built := false
	_, err = Run(ctx, nw, func(a *Agent) *Proto[struct{}] {
		built = true
		return oneRound(a, ring.Clockwise)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if built {
		t.Error("machines built despite pre-cancelled context")
	}
	if nw.Rounds() != 0 {
		t.Errorf("rounds executed: %d", nw.Rounds())
	}
}

// executions maps each execution mode to its build wrapper: "leap" runs the
// machines as built, "split" under the per-round split-batch oracle.
var executions = map[string]func(func(a *Agent) *Proto[struct{}]) func(a *Agent) *Proto[struct{}]{
	"leap":  func(b func(a *Agent) *Proto[struct{}]) func(a *Agent) *Proto[struct{}] { return b },
	"split": SplitBatches[struct{}],
}

// TestRunErrorShapes pins the error layout of a max-rounds failure in both
// execution modes: the run error joins the run-level failure with one
// "agent id N:" error per machine that was still pending, and every agent
// played the full budget.
func TestRunErrorShapes(t *testing.T) {
	for name, exec := range executions {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(ring.Basic, nil)
			cfg.MaxRounds = 2
			nw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			used := make([]int, nw.N())
			res, err := run(nw, exec(func(a *Agent) *Proto[struct{}] {
				return forever(a, func() { used[nw.IndexOfID(a.ID())] = a.RoundsUsed() })
			}))
			if !errors.Is(err, ErrMaxRoundsExceed) {
				t.Fatalf("got %v", err)
			}
			if res.Rounds != 2 {
				t.Fatalf("rounds = %d, want 2", res.Rounds)
			}
			for i, u := range used {
				if u != 2 {
					t.Errorf("agent %d used %d rounds", i, u)
				}
				if want := fmt.Sprintf("agent id %d: ", nw.IDOf(i)); !strings.Contains(err.Error(), want) {
					t.Errorf("error %q lacks %q", err, want)
				}
			}
		})
	}
}

// TestExecutorPanicFailsRunInsteadOfDeadlocking injects a panic into the
// round executor and verifies the run unwinds with a broken-network error
// instead of hanging, and that the network stays broken.
func TestExecutorPanicFailsRunInsteadOfDeadlocking(t *testing.T) {
	fired := false
	testHookExecuteRound = func() {
		if !fired {
			fired = true
			panic("injected executor failure")
		}
	}
	defer func() { testHookExecuteRound = nil }()

	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = run(nw, func(a *Agent) *Proto[struct{}] { return oneRound(a, ring.Clockwise) })
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung after executor panic")
	}
	if !errors.Is(runErr, ErrNetworkBroken) {
		t.Fatalf("got %v, want ErrNetworkBroken", runErr)
	}
	// The network stays broken: further runs are rejected up front.
	if _, err := run(nw, func(a *Agent) *Proto[struct{}] { return constant(struct{}{}) }); !errors.Is(err, ErrNetworkBroken) {
		t.Fatalf("run on broken network: got %v, want ErrNetworkBroken", err)
	}
}

// TestExactRoundBudgetSucceeds pins that a protocol terminating after
// exactly MaxRounds rounds succeeds, whether its batch leaps or is played one
// round per crossing: exhausting the budget is only an error while agents
// still want another round.
func TestExactRoundBudgetSucceeds(t *testing.T) {
	for name, exec := range executions {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(ring.Basic, nil)
			cfg.MaxRounds = 3
			nw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(nw, exec(func(a *Agent) *Proto[struct{}] {
				return NewProto(func(done func(struct{}, error) (Yield, Cont)) (Yield, Cont) {
					return a.YieldRoundN(ring.Clockwise, 3), func(Resume) (Yield, Cont) { return done(struct{}{}, nil) }
				})
			}))
			if err != nil {
				t.Fatalf("exact-budget run failed: %v", err)
			}
			if res.Rounds != 3 {
				t.Fatalf("rounds = %d, want 3", res.Rounds)
			}
		})
	}
}

// TestManyAgentsSmoke runs a larger population with mixed early exits.
func TestManyAgentsSmoke(t *testing.T) {
	const n = 257
	positions := make([]int64, n)
	ids := make([]int, n)
	for i := range positions {
		positions[i] = int64(4 * i)
		ids[i] = i + 1
	}
	nw, err := New(Config{Model: ring.Perceptive, Circ: 4 * n * 2, Positions: positions, IDs: ids, IDBound: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(nw, func(a *Agent) *Proto[int64] {
		rounds := 1 + a.ID()%7
		return perRound(a, func(i int) (ring.Direction, bool) {
			if (a.ID()+i)%3 == 0 {
				return ring.Anticlockwise, i < rounds
			}
			return ring.Clockwise, i < rounds
		}, nil, a.Displacement)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7", res.Rounds)
	}
	if len(res.Outputs) != n {
		t.Fatalf("%d outputs, want %d", len(res.Outputs), n)
	}
}
