package engine

import (
	"testing"

	"ringsym/internal/ring"
)

// keepCounter is the kept state of keepMachines: how many runs the agent's
// machine has started, bumped by the pipeline itself.
type keepCounter struct{ runs int }

var (
	keepCounters = NewSlot[keepCounter]()
	keepMachines = NewMachineSlot(func(a *Agent, rounds int, k func(int) (Yield, Cont)) (Yield, Cont) {
		c := keepCounters.Of(a)
		c.runs++
		if rounds == 0 {
			return k(a.ID()*100 + c.runs)
		}
		return a.YieldRoundN(ring.Clockwise, rounds), func(Resume) (Yield, Cont) {
			return k(a.ID()*100 + c.runs)
		}
	})
)

// TestKeptStateSurvivesRunsAndReset checks the Slot contract: Of returns the
// same value for one agent across runs and Network.Reset, and distinct
// values for distinct agents; a MachineSlot hands an agent the same machine
// every run, re-armed, whose result is that run's.
func TestKeptStateSurvivesRunsAndReset(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	var protos []*Proto[int]
	for r := 1; r <= 3; r++ {
		if r == 3 {
			if err := nw.Reset(testConfig(ring.Lazy, nil)); err != nil {
				t.Fatal(err)
			}
		}
		var built []*Proto[int]
		res, err := run(nw, func(a *Agent) *Proto[int] {
			p := keepMachines.New(a, r-1)
			built = append(built, p)
			return p
		})
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
		if res.Rounds != r-1 {
			t.Errorf("run %d: %d rounds, want %d", r, res.Rounds, r-1)
		}
		for i, out := range res.Outputs {
			if want := nw.IDOf(i)*100 + r; out != want {
				t.Errorf("run %d, agent %d: result %d, want %d", r, i, out, want)
			}
		}
		if protos == nil {
			protos = built
			continue
		}
		for i, p := range built {
			if p != protos[i] {
				t.Errorf("run %d, agent %d: a new machine, want the kept one", r, i)
			}
		}
	}
	seen := map[*keepCounter]bool{}
	for _, a := range nw.agents {
		c := keepCounters.Of(a)
		if seen[c] {
			t.Fatal("two agents share kept state")
		}
		seen[c] = true
	}
}
