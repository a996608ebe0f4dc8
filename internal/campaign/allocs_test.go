package campaign

import (
	"context"
	"fmt"
	"testing"
)

// allocBudget is the steady-state allocation count of one scenario on a
// campaign worker, measured when the protocols took their per-agent state
// from the agents' kept slots (engine.Slot) instead of allocating it per run:
// what remains is the run's result slices and, in discover, every agent's
// answer.  Keys are task/model/parity, with "/cs" for the common-sense
// sweep of golden/sweep-cs; the scenario is the one of its golden grid with
// that combination that runs the most rounds.  The counts are the maxima
// of 40 normal-build runs, 20 each under GOMAXPROCS 1 and 2; every run read
// the same counts.
var allocBudget = map[string]float64{
	"coordinate/basic/even":         8,
	"coordinate/basic/odd":          7,
	"coordinate/lazy/even":          8,
	"coordinate/lazy/odd":           7,
	"coordinate/perceptive/even":    8,
	"coordinate/perceptive/odd":     7,
	"discover/basic/even":           0,
	"discover/basic/odd":            43,
	"discover/lazy/even":            42,
	"discover/lazy/odd":             43,
	"discover/perceptive/even":      90,
	"discover/perceptive/odd":       43,
	"coordinate/basic/even/cs":      7,
	"coordinate/basic/odd/cs":       7,
	"coordinate/lazy/even/cs":       7,
	"coordinate/lazy/odd/cs":        7,
	"coordinate/perceptive/even/cs": 7,
	"coordinate/perceptive/odd/cs":  7,
	"discover/basic/even/cs":        0,
	"discover/basic/odd/cs":         43,
	"discover/lazy/even/cs":         41,
	"discover/lazy/odd/cs":          43,
	"discover/perceptive/even/cs":   49,
	"discover/perceptive/odd/cs":    43,
}

// allocSlack is the growth over the budget the test tolerates.
const allocSlack = 1.10

// TestScenarioAllocBudget runs one grid scenario per task × model × parity
// the way a campaign worker does — on the worker's network slot — and fails when its allocations exceed the
// budget by more than allocSlack: a protocol loop that builds a closure per
// round again shows up here as a count proportional to its rounds.  A -race
// build checks every scenario's status and rounds but not its allocations:
// its sync.Pool drops Puts, so some runs allocate a fresh scheduler arena.
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
	slot := &Slot{}
	for key, want := range pick {
		budget, ok := allocBudget[key]
		if !ok {
			t.Errorf("%s: no allocation budget", key)
			continue
		}
		sc := want.Scenario
		var rec Record
		got := testing.AllocsPerRun(20, func() { rec = slot.Run(context.Background(), sc, Options{}) })
		if rec.Status != want.Status || rec.Rounds != want.Rounds {
			t.Errorf("%s (%s): %s in %d rounds on the worker slot, %s in %d in the sweep", key, sc.Key(), rec.Status, rec.Rounds, want.Status, want.Rounds)
		}
		t.Logf("%s (%s, %d rounds): %.0f allocs, budget %.0f", key, sc.Key(), rec.Rounds, got, budget)
		if !raceEnabled && got > budget*allocSlack {
			t.Errorf("%s (%s): %.0f allocations per scenario, budget %.0f (+%.0f%%)", key, sc.Key(), got, budget, (allocSlack-1)*100)
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
