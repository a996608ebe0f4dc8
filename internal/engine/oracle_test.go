package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/engine"
)

// The golden sweeps of testdata/golden: the 216-scenario grid (ringfarm
// -sizes 8,12,16 -seeds 1:3) and its 108-scenario common-sense twin
// (-commonsense true).
var (
	goldenSweep   = campaign.Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2, 3}}
	goldenSweepCS = campaign.Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2, 3}, CommonSense: []bool{true}}
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

// TestArenaReuseMatchesNeverUsedArenas is the reuse oracle of the run
// arenas' kept state: every scenario of both golden sweeps runs on a fresh
// network, as every entry point runs it, first on a never-used arena (the
// oracle, independent of anything earlier runs left behind), then in
// shuffled order through the shared free list, so that the kept columns
// pass between networks of mixed n, models and tasks.  Every
// record must equal its oracle record, once as is and once after runs
// cancelled at about 16 points of the scenario, which leave their kept state
// half-way through a pipeline.
func TestArenaReuseMatchesNeverUsedArenas(t *testing.T) {
	var scs []campaign.Scenario
	for _, m := range []campaign.Matrix{goldenSweep, goldenSweepCS} {
		part, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, part...)
	}
	ctx := context.Background()
	runRec := func(ctx context.Context, sc campaign.Scenario) campaign.Record {
		rec := campaign.RunScenarioContext(ctx, sc, campaign.Options{})
		rec.Wall = 0
		return rec
	}
	restore := engine.UseFreshArenas()
	want := make([]campaign.Record, len(scs))
	checks := make([]int, len(scs))
	for i, sc := range scs {
		full := newTripCtx(math.MaxInt)
		want[i] = runRec(full, sc)
		checks[i] = full.checks
	}
	restore()

	same := func(i int, after string) {
		t.Helper()
		if got := runRec(ctx, scs[i]); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s %s:\n got %+v\nwant %+v (never-used arena)", scs[i].Key(), after, got, want[i])
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(len(scs)) {
		same(i, "through the free list")
	}
	order := rng.Perm(len(scs))
	for j, i := range order {
		sc, next := scs[i], order[(j+1)%len(order)]
		for k := 1; k <= checks[i]; k += max(1, checks[i]/16) {
			after := fmt.Sprintf("after %s was cancelled at check %d of %d", sc.Key(), k, checks[i])
			rec := runRec(newTripCtx(k), sc)
			if rec.Status != campaign.StatusFailed || !strings.Contains(rec.Error, context.Canceled.Error()) {
				t.Fatalf("%s cancelled at check %d: %s %q, want a cancelled failure", sc.Key(), k, rec.Status, rec.Error)
			}
			same(next, after)
			runRec(newTripCtx(k), sc)
			same(i, after)
		}
	}
}
