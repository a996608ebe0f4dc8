package campaign

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smallMatrix is a fast sweep touching all models, both parities and both
// chirality regimes.
func smallMatrix() Matrix {
	return Matrix{Sizes: []int{8}, Seeds: []int64{1, 2}}
}

func stripWall(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

func TestRunSweepDeterministicAndVerified(t *testing.T) {
	scs, err := smallMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunAll(context.Background(), scs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAll(context.Background(), scs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(scs) {
		t.Fatalf("got %d records for %d scenarios", len(a), len(scs))
	}
	if !bytes.Equal(mustJSONL(t, scs, a), mustJSONL(t, scs, b)) {
		t.Fatal("records differ between runs with different worker counts")
	}
	for _, rec := range a {
		switch rec.Status {
		case StatusOK:
			if !rec.Verified || rec.Rounds <= 0 {
				t.Errorf("%s: ok record not verified or zero rounds: %+v", rec.Key(), rec)
			}
			if rec.BoundStr == "" || rec.Bound <= 0 {
				t.Errorf("%s: missing bound", rec.Key())
			}
		case StatusUnsolvable:
			if rec.Task != TaskDiscover || rec.Model != "basic" || rec.N%2 != 0 {
				t.Errorf("%s: unexpected unsolvable record", rec.Key())
			}
		default:
			t.Errorf("%s: status %s (%s)", rec.Key(), rec.Status, rec.Error)
		}
	}
}

func mustJSONL(t *testing.T, scs []Scenario, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewOrderedWriter(&buf, scs)
	for _, rec := range recs {
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWorkerPanicIsolated(t *testing.T) {
	scs, err := Matrix{
		Tasks:     []Task{TaskCoordinate},
		Models:    []string{"lazy"},
		Parities:  []string{ParityEven},
		Chirality: []string{ChiralityMixed},
		Sizes:     []int{8},
		Seeds:     []int64{1, 2, 3, 4, 5, 6},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	testHookScenario = func(sc Scenario) {
		if sc.Seed == 3 {
			panic("scenario exploded")
		}
	}
	defer func() { testHookScenario = nil }()

	recs, err := RunAll(context.Background(), scs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(scs) {
		t.Fatalf("panic aborted the sweep: got %d of %d records", len(recs), len(scs))
	}
	failed := 0
	for _, rec := range recs {
		if rec.Seed == 3 {
			failed++
			if rec.Status != StatusFailed || !strings.Contains(rec.Error, "scenario exploded") {
				t.Errorf("panicking scenario recorded as %s (%s)", rec.Status, rec.Error)
			}
			if rec.Bound == 0 || rec.BoundStr == "" {
				t.Errorf("failed record lost its bound: %+v", rec)
			}
		} else if rec.Status != StatusOK {
			t.Errorf("%s: healthy scenario recorded as %s", rec.Key(), rec.Status)
		}
	}
	if failed != 1 {
		t.Errorf("got %d failed records, want 1", failed)
	}
}

func TestRunCancellation(t *testing.T) {
	scs, err := Matrix{Sizes: []int{8, 16, 32}, Seeds: []int64{1, 2, 3, 4}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := 0
	err = Run(ctx, scs, Options{Workers: 2}, io.Discard, func(Record) {
		if got++; got == 3 {
			cancel()
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Run returned %v, want context.Canceled", err)
	}
	if got >= len(scs) {
		t.Fatalf("cancellation did not cut the sweep short (%d records)", got)
	}
	if _, err := RunAll(ctx, scs, Options{Workers: 2}); err == nil {
		t.Error("RunAll on a cancelled context did not report the error")
	}
}

// TestRunScenarioContextCancelledSurfacesError verifies that a cancelled
// context turns the scenario into a failed record that names
// context.Canceled, instead of the protocol running to completion (or until
// the engine's round bound).
func TestRunScenarioContextCancelledSurfacesError(t *testing.T) {
	scs, err := smallMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := RunScenarioContext(ctx, scs[0], Options{})
	if rec.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", rec.Status)
	}
	if !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("record error %q does not surface context.Canceled", rec.Error)
	}
	// The record still carries its scenario identity and bound so aggregated
	// artefacts stay well-formed.
	if rec.Index != scs[0].Index || rec.BoundStr == "" {
		t.Errorf("cancelled record lost scenario identity: %+v", rec)
	}
}

// TestRunCancelledPoolDrainsPromptly verifies the pool does not hang on
// cancellation even when every scenario would otherwise be long-running: the
// context aborts in-flight engine runs within a round.
func TestRunCancelledPoolDrainsPromptly(t *testing.T) {
	scs, err := smallMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error)
	go func() { done <- Run(ctx, scs, Options{Workers: 2}, io.Discard, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled pool did not drain")
	}
}

func TestShardUnionReproducesFullExport(t *testing.T) {
	scs, err := Matrix{
		Tasks:  []Task{TaskCoordinate, TaskDiscover},
		Models: []string{"perceptive", "lazy"},
		Sizes:  []int{8},
		Seeds:  []int64{1, 2},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunAll(context.Background(), scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullJSONL := mustJSONL(t, scs, full)

	var union bytes.Buffer
	const m = 3
	for i := 0; i < m; i++ {
		shard, err := Shard(scs, i, m)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := RunAll(context.Background(), shard, Options{})
		if err != nil {
			t.Fatal(err)
		}
		union.Write(mustJSONL(t, shard, recs))
	}
	if !bytes.Equal(fullJSONL, union.Bytes()) {
		t.Fatal("concatenated shard exports differ from the full export")
	}
	if !bytes.Contains(fullJSONL, []byte(`"status":"ok"`)) {
		t.Fatalf("export looks wrong:\n%s", fullJSONL)
	}
	if bytes.Contains(fullJSONL, []byte("Wall")) {
		t.Fatal("wall time leaked into the deterministic export")
	}
}

// TestArbitraryPartitionReproducesFullExport generalizes the shard-union
// property from contiguous i/m shards to ANY partition of the index space
// into contiguous ranges: each range run independently (in an arbitrary
// execution order), then merged back in index order, reproduces the
// unsharded JSONL byte-for-byte.  This is the invariant the fleet lease
// merger (internal/fleet) rests on — lease boundaries are set at runtime
// (lease sizes follow the unleased tail, and a failed lease is re-leased from
// wherever its stream stopped), so byte-identity must hold for every cut, not
// just the even ones.
func TestArbitraryPartitionReproducesFullExport(t *testing.T) {
	scs, err := Matrix{
		Tasks:  []Task{TaskCoordinate, TaskDiscover},
		Models: []string{"perceptive", "lazy"},
		Sizes:  []int{8},
		Seeds:  []int64{1, 2},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunAll(context.Background(), scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullJSONL := mustJSONL(t, scs, full)

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		// Random cut points, including degenerate partitions (single range,
		// all-singleton) on the first trials.
		var cuts []int
		switch trial {
		case 0:
			cuts = []int{len(scs)}
		case 1:
			for i := 1; i <= len(scs); i++ {
				cuts = append(cuts, i)
			}
		default:
			for i := 1; i < len(scs); i++ {
				if rng.Intn(3) == 0 {
					cuts = append(cuts, i)
				}
			}
			cuts = append(cuts, len(scs))
		}
		type rng2 struct{ lo, hi int }
		var ranges []rng2
		lo := 0
		for _, hi := range cuts {
			ranges = append(ranges, rng2{lo, hi})
			lo = hi
		}

		// Execute the ranges in a shuffled order — a partition's pieces are
		// independent, so execution order must not matter.
		parts := make([][]byte, len(ranges))
		for _, ri := range rng.Perm(len(ranges)) {
			r := ranges[ri]
			recs, err := RunAll(context.Background(), scs[r.lo:r.hi], Options{})
			if err != nil {
				t.Fatal(err)
			}
			parts[ri] = mustJSONL(t, scs[r.lo:r.hi], recs)
		}
		var merged bytes.Buffer
		for _, p := range parts {
			merged.Write(p)
		}
		if !bytes.Equal(fullJSONL, merged.Bytes()) {
			t.Fatalf("trial %d: partition into %d ranges does not reproduce the full export", trial, len(ranges))
		}
	}
}

func TestRunScenarioWallClock(t *testing.T) {
	rec := RunScenarioContext(t.Context(), Scenario{Task: TaskCoordinate, Model: "lazy", N: 8, IDBound: 32, MixedChirality: true, Seed: 1}, Options{})
	if rec.Status != StatusOK {
		t.Fatalf("status %s: %s", rec.Status, rec.Error)
	}
	if rec.Wall <= 0 || rec.Wall > time.Minute {
		t.Errorf("implausible wall time %v", rec.Wall)
	}
}

// TestRunAllShardMatchesRun pins RunAll's feed-position slots and Run's
// writer: on a shard whose indices do not start at 0, cache off and on
// (where the feed is reordered), the JSONL Run writes equals RunAll's
// records through an OrderedWriter, and Run hands onRecord every record
// once, in index order.
func TestRunAllShardMatchesRun(t *testing.T) {
	scs, err := goldenGrid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	shard, err := Shard(scs, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if shard[0].Index == 0 {
		t.Fatal("shard 1/3 starts at index 0")
	}
	for _, cached := range []bool{false, true} {
		opts := func() Options {
			if cached {
				return Options{Workers: 2, Cache: NewCache(0)}
			}
			return Options{Workers: 2}
		}
		all, err := RunAll(t.Context(), shard, opts())
		if err != nil {
			t.Fatal(err)
		}
		var streamed bytes.Buffer
		var seen []int
		if err := Run(t.Context(), shard, opts(), &streamed, func(rec Record) { seen = append(seen, rec.Index) }); err != nil {
			t.Fatal(err)
		}
		want, got := mustJSONL(t, shard, all), streamed.Bytes()
		if cached {
			// Which framing of an orbit computes depends on scheduling.
			want, got = cacheAnnotation.ReplaceAll(want, nil), cacheAnnotation.ReplaceAll(got, nil)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("cached=%v: Run's JSONL differs from RunAll's records written in order", cached)
		}
		if len(seen) != len(shard) {
			t.Fatalf("cached=%v: onRecord saw %d records for %d scenarios", cached, len(seen), len(shard))
		}
		for i, idx := range seen {
			if idx != shard[i].Index {
				t.Fatalf("cached=%v: onRecord call %d got index %d, want %d", cached, i, idx, shard[i].Index)
			}
		}
	}
}

// failAfter is a records sink whose writes fail once it has taken n.
type failAfter struct{ n int }

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errSinkFull
	}
	f.n--
	return len(p), nil
}

// TestSweepLeavesNoGoroutines checks that a cancelled RunAll and a Run whose
// writer fails after one record both wind down every worker, and that Run
// returns the write error.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	scs, err := Matrix{Sizes: []int{8, 16, 32}, Seeds: []int64{1, 2, 3, 4}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ctx, cancel := context.WithCancel(t.Context())
	testHookScenario = func(Scenario) { cancel() }
	_, err = RunAll(ctx, scs, Options{Workers: 4})
	testHookScenario = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunAll returned %v", err)
	}
	settled("cancelled RunAll")

	written := 0
	err = Run(t.Context(), scs, Options{Workers: 4}, &failAfter{n: 1}, func(Record) { written++ })
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("Run with a failing writer returned %v, want the write error", err)
	}
	if written != 1 {
		t.Errorf("onRecord saw %d records, want the 1 the writer took", written)
	}
	settled("Run whose writer fails after one record")
}
