package campaign

import (
	"context"
	"fmt"
	"testing"
)

// allocBudget is the steady-state allocation count of one scenario beyond
// its fresh network (networkAllocs), measured once the protocols took their
// per-agent state, discover's results and perceptive's gap vectors
// included, from the run arena's kept columns (engine.Slot) instead of
// allocating it per run: what remains is the run's result slices and, in
// discover, the slab of every agent's answer.  Keys are task/model/parity,
// with "/cs" for the common-sense sweep of golden/sweep-cs; the scenario is
// the one of its golden grid with that combination that runs the most
// rounds.  The counts are the maxima of 40 normal-build runs, 20 each under
// GOMAXPROCS 1 and 2, and of 20 -race runs, less the network's own objects
// (7, or 8 in the perceptive model); every run read the same counts.
var allocBudget = map[string]float64{
	"coordinate/basic/even":         8,
	"coordinate/basic/odd":          7,
	"coordinate/lazy/even":          8,
	"coordinate/lazy/odd":           7,
	"coordinate/perceptive/even":    8,
	"coordinate/perceptive/odd":     7,
	"discover/basic/even":           0,
	"discover/basic/odd":            10,
	"discover/lazy/even":            11,
	"discover/lazy/odd":             10,
	"discover/perceptive/even":      11,
	"discover/perceptive/odd":       10,
	"coordinate/basic/even/cs":      7,
	"coordinate/basic/odd/cs":       7,
	"coordinate/lazy/even/cs":       7,
	"coordinate/lazy/odd/cs":        7,
	"coordinate/perceptive/even/cs": 7,
	"coordinate/perceptive/odd/cs":  7,
	"discover/basic/even/cs":        0,
	"discover/basic/odd/cs":         10,
	"discover/lazy/even/cs":         10,
	"discover/lazy/odd/cs":          10,
	"discover/perceptive/even/cs":   10,
	"discover/perceptive/odd/cs":    10,
}

// allocSlack is the growth over the budget the test tolerates.
const allocSlack = 1.10

// networkAllocs is what a fresh network costs on top of the budget: the
// facade and engine networks, the ring state and its slices, the agent slab,
// the ID index and, in the perceptive model, the kernel's scratch the first
// round allocates: 7 objects, 8 in the perceptive model.  It does not depend
// on n (engine's TestNewAllocsIndependentOfN).
const networkAllocs = 8

// TestScenarioAllocBudget runs one grid scenario per task × model × parity
// the way every entry point does, on a fresh network, and fails when its
// allocations exceed budget×allocSlack + networkAllocs: a protocol loop
// that builds a closure per round again shows up here as a count
// proportional to its rounds, and a network whose cost grows with n as a
// count proportional to n.  After the warm-up run the protocol state comes
// warm from the run arenas' free list.
func TestScenarioAllocBudget(t *testing.T) {
	// The most expensive scenario of each combination: the longest round
	// sequences are where per-round allocation would show.
	pick := map[string]Record{}
	for _, m := range []Matrix{goldenGrid, goldenGridCommonSense} {
		scs, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := RunAll(context.Background(), scs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			key := allocKey(rec.Scenario)
			if cur, ok := pick[key]; !ok || rec.Rounds > cur.Rounds {
				pick[key] = rec
			}
		}
	}
	for key, want := range pick {
		budget, ok := allocBudget[key]
		if !ok {
			t.Errorf("%s: no allocation budget", key)
			continue
		}
		sc := want.Scenario
		limit := budget*allocSlack + networkAllocs
		var rec Record
		got := testing.AllocsPerRun(20, func() { rec = RunScenarioContext(context.Background(), sc, Options{}) })
		if rec.Status != want.Status || rec.Rounds != want.Rounds {
			t.Errorf("%s (%s): %s in %d rounds, %s in %d in the sweep", key, sc.Key(), rec.Status, rec.Rounds, want.Status, want.Rounds)
		}
		t.Logf("%s (%s, %d rounds): %.0f allocs, limit %.0f", key, sc.Key(), rec.Rounds, got, limit)
		if got > limit {
			t.Errorf("%s (%s): %.0f allocations per scenario, limit %.0f", key, sc.Key(), got, limit)
		}
	}
	for key := range allocBudget {
		if _, ok := pick[key]; !ok {
			t.Errorf("%s: budgeted, but the golden grid has no such scenario", key)
		}
	}
}

// allocKey is a scenario's task/model/parity combination, with a "/cs"
// suffix under a common sense of direction.
func allocKey(sc Scenario) string {
	parity := "even"
	if sc.N%2 == 1 {
		parity = "odd"
	}
	key := fmt.Sprintf("%s/%s/%s", sc.Task, sc.Model, parity)
	if sc.CommonSense {
		key += "/cs"
	}
	return key
}
