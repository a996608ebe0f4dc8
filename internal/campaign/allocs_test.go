package campaign

import (
	"context"
	"fmt"
	"testing"

	"ringsym/internal/engine"
)

// allocBudget is the steady-state allocation count of one scenario on a
// campaign worker, measured when the protocol machines stopped allocating
// per round: continuations live in one state struct per protocol call and
// the frame primitives resume through a method bound once per frame.  Keys
// are task/model/parity; the scenario is the one of the golden grid with
// that combination that runs the most rounds.
var allocBudget = map[string]float64{
	"coordinate/basic/even":      123,
	"coordinate/basic/odd":       214,
	"coordinate/lazy/even":       123,
	"coordinate/lazy/odd":        214,
	"coordinate/perceptive/even": 507,
	"coordinate/perceptive/odd":  452,
	"discover/basic/even":        0,
	"discover/basic/odd":         317,
	"discover/lazy/even":         332,
	"discover/lazy/odd":          317,
	"discover/perceptive/even":   1212,
	"discover/perceptive/odd":    317,
}

// allocSlack is the growth over the budget the test tolerates.
const allocSlack = 1.10

// TestScenarioAllocBudget runs one grid scenario per task × model × parity
// the way a campaign worker does — with the worker's scheduler arena and
// network slot in the context — and fails when its allocations exceed the
// budget by more than allocSlack: a protocol loop that builds a closure per
// round again shows up here as a count proportional to its rounds.
func TestScenarioAllocBudget(t *testing.T) {
	scs, err := goldenGrid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RunAll(context.Background(), scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The most expensive scenario of each combination: the longest round
	// sequences are where per-round allocation would show.
	pick := map[string]Record{}
	for _, rec := range recs {
		key := allocKey(rec.Scenario)
		if cur, ok := pick[key]; !ok || rec.Rounds > cur.Rounds {
			pick[key] = rec
		}
	}
	ctx := withNetSlot(engine.WithBatch(context.Background(), engine.NewBatch()), &netSlot{})
	for key, want := range pick {
		budget, ok := allocBudget[key]
		if !ok {
			t.Errorf("%s: no allocation budget", key)
			continue
		}
		sc := want.Scenario
		var rec Record
		got := testing.AllocsPerRun(20, func() { rec = RunScenarioContext(ctx, sc, Options{}) })
		if rec.Status != want.Status || rec.Rounds != want.Rounds {
			t.Errorf("%s (%s): %s in %d rounds on the worker context, %s in %d in the sweep", key, sc.Key(), rec.Status, rec.Rounds, want.Status, want.Rounds)
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

// allocKey is a scenario's task/model/parity combination.
func allocKey(sc Scenario) string {
	parity := "even"
	if sc.N%2 == 1 {
		parity = "odd"
	}
	return fmt.Sprintf("%s/%s/%s", sc.Task, sc.Model, parity)
}
