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

// TestKeptStateSurvivesRunsAndReset checks the Slot contract: within a run
// Of returns the same value for an agent every time and distinct values for
// distinct agents; across sequential runs the value stays with the arena's
// column, through Network.Reset and onto a fresh network, and a MachineSlot
// hands the column's agent the same machine every run, re-armed, whose
// result is that run's.  On never-used arenas (testFreshArenas) every run
// starts from zero state.
func TestKeptStateSurvivesRunsAndReset(t *testing.T) {
	for _, fresh := range []bool{false, true} {
		testFreshArenas = fresh
		var nw *Network
		var protos []*Proto[int]
		for r := 1; r <= 4; r++ {
			var err error
			switch r {
			case 1, 4: // run 4 is on a fresh network
				nw, err = New(testConfig(ring.Basic, nil))
			case 3:
				err = nw.Reset(testConfig(ring.Lazy, nil))
			}
			if err != nil {
				t.Fatal(err)
			}
			var built []*Proto[int]
			owner := map[*keepCounter]int{}
			res, err := run(nw, func(a *Agent) *Proto[int] {
				c := keepCounters.Of(a)
				if c != keepCounters.Of(a) {
					t.Errorf("run %d, agent %d: Of returned two values in one run", r, len(built))
				}
				if j, dup := owner[c]; dup {
					t.Errorf("run %d: agents %d and %d share kept state", r, j, len(built))
				}
				owner[c] = len(built)
				p := keepMachines.New(a, r-1)
				built = append(built, p)
				return p
			})
			if err != nil {
				t.Fatalf("fresh arenas %v, run %d: %v", fresh, r, err)
			}
			if res.Rounds != r-1 {
				t.Errorf("fresh arenas %v, run %d: %d rounds, want %d", fresh, r, res.Rounds, r-1)
			}
			runs := r
			if fresh {
				runs = 1
			}
			for i, out := range res.Outputs {
				if want := nw.IDOf(i)*100 + runs; out != want {
					t.Errorf("fresh arenas %v, run %d, agent %d: result %d, want %d", fresh, r, i, out, want)
				}
			}
			if protos == nil || fresh {
				protos = built
				continue
			}
			for i, p := range built {
				if p != protos[i] {
					t.Errorf("run %d, agent %d: a new machine, want the kept one", r, i)
				}
			}
		}
	}
	testFreshArenas = false
}
