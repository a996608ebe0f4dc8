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
// of five -race runs.  The race build's sync.Pool drops Puts, so some runs
// allocate a fresh scheduler arena; the normal build reads 1–3 fewer.
var allocBudget = map[string]float64{
	"coordinate/basic/even":         11,
	"coordinate/basic/odd":          10,
	"coordinate/lazy/even":          11,
	"coordinate/lazy/odd":           10,
	"coordinate/perceptive/even":    11,
	"coordinate/perceptive/odd":     11,
	"discover/basic/even":           0,
	"discover/basic/odd":            46,
	"discover/lazy/even":            44,
	"discover/lazy/odd":             45,
	"discover/perceptive/even":      92,
	"discover/perceptive/odd":       46,
	"coordinate/basic/even/cs":      10,
	"coordinate/basic/odd/cs":       11,
	"coordinate/lazy/even/cs":       11,
	"coordinate/lazy/odd/cs":        11,
	"coordinate/perceptive/even/cs": 11,
	"coordinate/perceptive/odd/cs":  11,
	"discover/basic/even/cs":        0,
	"discover/basic/odd/cs":         45,
	"discover/lazy/even/cs":         43,
	"discover/lazy/odd/cs":          45,
	"discover/perceptive/even/cs":   53,
	"discover/perceptive/odd/cs":    45,
}

// allocSlack is the growth over the budget the test tolerates.
const allocSlack = 1.10

// TestScenarioAllocBudget runs one grid scenario per task × model × parity
// the way a campaign worker does — on the worker's network slot — and fails when its allocations exceed the
// budget by more than allocSlack: a protocol loop that builds a closure per
// round again shows up here as a count proportional to its rounds.
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
		if got > budget*allocSlack {
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
