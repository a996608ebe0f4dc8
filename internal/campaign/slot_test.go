package campaign

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tripCtx is a context that is never done but reports context.Canceled from
// its k-th Err check on: a cancellation that lands at the same point of a
// run every time.  The engine checks Err once before a run and once per
// crossing, and only when Done is non-nil.
type tripCtx struct {
	context.Context
	k, checks int
}

func newTripCtx(k int) *tripCtx { return &tripCtx{Context: context.Background(), k: k} }

func (c *tripCtx) Done() <-chan struct{} { return never }

func (c *tripCtx) Err() error {
	c.checks++
	if c.checks >= c.k {
		return context.Canceled
	}
	return nil
}

var never = make(chan struct{})

// TestSlotRunAfterCancelledRun cancels a scenario on a slot at points spread
// over its run, then runs the next scenario and the cancelled one again on the
// same slot: each must give exactly the record a fresh network gives.  The
// scenarios are the golden grid's longest per task × model × parity, in a
// fixed order, so the slot also changes size, model and task between runs.
func TestSlotRunAfterCancelledRun(t *testing.T) {
	scs, err := goldenGrid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	longest := map[string]Record{}
	for _, sc := range scs {
		rec := RunScenarioContext(ctx, sc, Options{})
		rec.Wall = 0
		if cur, ok := longest[allocKey(sc)]; rec.Status == StatusOK && (!ok || rec.Rounds > cur.Rounds) {
			longest[allocKey(sc)] = rec
		}
	}
	var fresh []Record
	for _, rec := range longest {
		fresh = append(fresh, rec)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Index < fresh[j].Index })

	slot := &Slot{}
	same := func(sc Scenario, want Record, after string) {
		t.Helper()
		got := slot.Run(ctx, sc, Options{})
		got.Wall = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on the slot %s:\n got %+v\nwant %+v", sc.Key(), after, got, want)
		}
	}
	cancelAt := func(sc Scenario, k int) {
		t.Helper()
		rec := slot.Run(newTripCtx(k), sc, Options{})
		if rec.Status != StatusFailed || !strings.Contains(rec.Error, context.Canceled.Error()) {
			t.Fatalf("%s cancelled at check %d: %s %q, want a cancelled failure", sc.Key(), k, rec.Status, rec.Error)
		}
	}
	for i, want := range fresh {
		sc, next := want.Scenario, fresh[(i+1)%len(fresh)]
		full := newTripCtx(math.MaxInt)
		if rec := slot.Run(full, sc, Options{}); rec.Status != StatusOK {
			t.Fatalf("%s under a context that never trips: %s %q", sc.Key(), rec.Status, rec.Error)
		}
		// About 16 trip points per scenario, the first before the run
		// starts.
		for k := 1; k <= full.checks; k += max(1, full.checks/16) {
			after := fmt.Sprintf("after a run cancelled at check %d of %d", k, full.checks)
			cancelAt(sc, k)
			same(next.Scenario, next, after)
			cancelAt(sc, k)
			same(sc, want, after)
		}
	}
}
