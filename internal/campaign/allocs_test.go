package campaign

import (
	"context"
	"fmt"
	"testing"
)

// allocBudget is the steady-state allocation count of one scenario on a
// campaign worker's slot, measured once the protocols took their per-agent
// state, discover's results included, from the run arena's kept columns
// (engine.Slot) instead of allocating it per run: what remains is the run's
// result slices and, in discover, the slab of every agent's answer.  Keys
// are task/model/parity, with "/cs" for the common-sense sweep of
// golden/sweep-cs; the scenario is the one of its golden grid with that
// combination that runs the most rounds.  The counts are the maxima of 40
// normal-build runs, 20 each under GOMAXPROCS 1 and 2, and of 20 -race runs;
// every run read the same counts.
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
	"discover/perceptive/even":      27,
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
	"discover/perceptive/even/cs":   18,
	"discover/perceptive/odd/cs":    10,
}

// allocSlack is the growth over the budget the test tolerates.
const allocSlack = 1.10

// networkAllocs is what a network object costs beyond its n agent handles:
// the facade and engine networks, the ring state and its slices, the
// agent-handle slice, the ID index and, in the perceptive model, the
// kernel's scratch the first round allocates.  A fresh network of the golden
// sizes (8 to 17 agents) reads n + 8 to n + 11 allocations.
const networkAllocs = 11

// TestScenarioAllocBudget runs one grid scenario per task × model × parity
// the way a campaign worker does — on the worker's network slot — and fails
// when its allocations exceed the budget by more than allocSlack: a protocol
// loop that builds a closure per round again shows up here as a count
// proportional to its rounds.  Each scenario then runs on a nil slot, the
// way a cached compute or a /v1/run miss does, on a fresh network: after the
// warm-up run its protocol state comes warm from the run arenas' free list
// too, so it may allocate only the network object (n + networkAllocs) more
// than on the slot.
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
		for _, s := range []struct {
			name  string
			slot  *Slot
			limit float64
		}{
			{"the worker slot", slot, budget * allocSlack},
			{"a nil slot", nil, budget*allocSlack + float64(sc.N+networkAllocs)},
		} {
			var rec Record
			got := testing.AllocsPerRun(20, func() { rec = s.slot.Run(context.Background(), sc, Options{}) })
			if rec.Status != want.Status || rec.Rounds != want.Rounds {
				t.Errorf("%s (%s): %s in %d rounds on %s, %s in %d in the sweep", key, sc.Key(), rec.Status, rec.Rounds, s.name, want.Status, want.Rounds)
			}
			t.Logf("%s (%s, %d rounds) on %s: %.0f allocs, limit %.0f", key, sc.Key(), rec.Rounds, s.name, got, s.limit)
			if got > s.limit {
				t.Errorf("%s (%s): %.0f allocations per scenario on %s, limit %.0f", key, sc.Key(), got, s.name, s.limit)
			}
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
