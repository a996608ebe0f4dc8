package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ringsym/internal/canon"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// warmMatrix is the symmetric sweep of the warm-start acceptance bar:
// sizes 8,12 × seeds 1..5 × phases 0..2 × both reflections across the
// default task/model/parity/chirality grid — 1440 scenarios collapsing to
// ~220 computed orbits.
func warmMatrix() Matrix {
	return Matrix{
		Sizes:       []int{8, 12},
		Seeds:       []int64{1, 2, 3, 4, 5},
		Phases:      []int{0, 1, 2},
		Reflections: []bool{false, true},
	}
}

// stripVolatile clears the fields that legitimately differ between runs:
// the wall-clock duration and the cache annotation (which is the one field
// the warm path is allowed to change).
func stripVolatile(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.Wall = 0
		r.Cache = ""
		out[i] = r
	}
	return out
}

// TestWarmStartByteIdentity is the warm-start acceptance test: populate a
// store through a cached sweep, close everything, reopen the same directory
// under a cold memory cache, and re-serve the full symmetric sweep.  The
// warm run must execute zero computations (every solvable record is served
// from disk, memory or an in-flight dedup) and its records must be
// identical to the cold run's — and to an uncached run's — modulo the
// cache annotation.
func TestWarmStartByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1440-scenario sweep")
	}
	scenarios, err := warmMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1440 {
		t.Fatalf("matrix expanded to %d scenarios, want 1440", len(scenarios))
	}
	dir := t.TempDir()

	// Cold pass: compute through a cache with the store attached.
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCache(0)
	cold.AttachTier(st1, nil)
	coldRecs, err := RunAll(context.Background(), scenarios, Options{Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	coldStats := cold.Stats()
	if coldStats.Misses == 0 {
		t.Fatal("cold pass computed nothing")
	}
	if coldStats.DiskHits != 0 {
		t.Fatalf("cold pass on an empty store reported tier hits: %+v", coldStats)
	}
	if int(st1.Stats().Puts) != int(coldStats.Misses) {
		t.Fatalf("write-through: %d puts for %d computes", st1.Stats().Puts, coldStats.Misses)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm pass: same directory, fresh store handle, cold memory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := NewCache(0)
	warm.AttachTier(st2, nil)
	warmRecs, err := RunAll(context.Background(), scenarios, Options{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	warmStats := warm.Stats()
	if warmStats.Misses != 0 {
		t.Fatalf("warm restart executed %d computations, want 0 (stats %+v)", warmStats.Misses, warmStats)
	}
	if warmStats.DiskHits == 0 {
		t.Fatalf("warm restart never touched the disk tier: %+v", warmStats)
	}
	// Exactly one disk promotion per computed orbit: each orbit's first
	// request goes to disk, the rest are memory hits or dedups.
	if warmStats.DiskHits != coldStats.Misses {
		t.Errorf("disk hits = %d, want one per cold-computed orbit (%d)", warmStats.DiskHits, coldStats.Misses)
	}

	// Byte identity: warm == cold modulo the cache annotation, and every
	// solvable warm record carries a cache annotation that is not "miss".
	for _, rec := range warmRecs {
		if rec.Status == StatusUnsolvable {
			if rec.Cache != "" {
				t.Errorf("%s: unsolvable record touched the cache", rec.Key())
			}
			continue
		}
		switch rec.Cache {
		case "disk", "hit", "dedup":
		default:
			t.Errorf("%s: warm record served as %q, want disk/hit/dedup", rec.Key(), rec.Cache)
		}
	}
	if !reflect.DeepEqual(stripVolatile(warmRecs), stripVolatile(coldRecs)) {
		t.Error("warm records differ from cold records modulo annotation")
	}
}

// TestStoreTierMatchesUncached is the smaller always-on variant: a
// store-backed cached run equals a plain run record for record, through a
// close/reopen cycle (so the records compared really crossed the disk
// encoding).
func TestStoreTierMatchesUncached(t *testing.T) {
	scenarios, err := symmetricMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunAll(context.Background(), scenarios, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCache(0)
	cold.AttachTier(st1, nil)
	if _, err := RunAll(context.Background(), scenarios, Options{Cache: cold}); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := NewCache(0)
	warm.AttachTier(st2, nil)
	warmRecs, err := RunAll(context.Background(), scenarios, Options{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Misses != 0 {
		t.Fatalf("warm run recomputed %d scenarios", st.Misses)
	}
	if !reflect.DeepEqual(stripVolatile(warmRecs), stripVolatile(plain)) {
		t.Error("disk-served records differ from computed records modulo annotation")
	}
}

// TestCachedSweepDropsStoreFailures holds outcomeTier.Store's contract that
// failures are dropped: the store is closed after AttachTier, so every Get
// misses and every Put fails, and the cached sweep still computes, fails no
// scenario and returns the uncached sweep's records, the cache annotation
// aside.
func TestCachedSweepDropsStoreFailures(t *testing.T) {
	scenarios, err := symmetricMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunAll(context.Background(), scenarios, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	cache.AttachTier(st, nil)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("probe", []byte("x")); err != store.ErrClosed {
		t.Fatalf("Put on the closed store = %v, want store.ErrClosed", err)
	}
	recs, err := RunAll(context.Background(), scenarios, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.Misses == 0 || stats.DiskHits != 0 {
		t.Fatalf("sweep over a failing store: %+v, want computes and no disk hits", stats)
	}
	if puts := st.Stats().Puts; puts != 0 {
		t.Fatalf("closed store counted %d puts", puts)
	}
	for _, rec := range recs {
		if rec.Status == StatusFailed {
			t.Errorf("%s: failed over a failing store: %s", rec.Key(), rec.Error)
		}
	}
	if !reflect.DeepEqual(stripVolatile(recs), stripVolatile(plain)) {
		t.Error("records over a failing store differ from uncached records modulo annotation")
	}
}

// v1Outcome is task.Outcome without its methods: encoding/json writes it in
// the object form that stores before the versioned stored form hold.
type v1Outcome task.Outcome

// TestStoreMigratesV1Records: a store record in the object form of earlier
// builds, or in the version-2 array that carried the agent count, is a
// miss, never a failed scenario.  The recompute's Put supersedes it, and a
// reopened store then serves the scenario from disk with the same record
// and the same stored bytes.
func TestStoreMigratesV1Records(t *testing.T) {
	sc := Scenario{Task: TaskCoordinate, Model: "basic", N: 9, IDBound: 36, Seed: 1, Phase: 2, Reflect: true}
	model, err := ParseModel(sc.Model)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := generateConfig(sc, model)
	if err != nil {
		t.Fatal(err)
	}
	ccfg, _, err := canon.Canonicalize(gen)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(canon.Fingerprint(ccfg), sc)
	plain := RunScenarioContext(t.Context(), sc, Options{})
	if plain.Status != StatusOK {
		t.Fatalf("uncached run: %+v", plain)
	}
	run := func(st *store.Store, want string) ([]byte, []byte) {
		t.Helper()
		cache := NewCache(0)
		cache.AttachTier(st, nil)
		rec := RunScenarioContext(t.Context(), sc, Options{Cache: cache})
		if rec.Cache != want {
			t.Fatalf("run served as %q, want %q (record %+v)", rec.Cache, want, rec)
		}
		got := stripVolatile([]Record{rec, plain})
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("record differs from the uncached one:\ngot  %+v\nwant %+v", got[0], got[1])
		}
		b, err := json.Marshal(got[0])
		if err != nil {
			t.Fatal(err)
		}
		stored, ok := st.Get(key)
		if !ok {
			t.Fatal("store holds no record for the key after the run")
		}
		return b, stored
	}

	// The current bytes of the canonical outcome, from a cold fill, and the
	// same outcome in the two earlier forms.
	fill, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fill.Close()
	_, v3 := run(fill, "miss")
	var out task.Outcome
	if err := json.Unmarshal(v3, &out); err != nil {
		t.Fatal(err)
	}
	v1, err := json.Marshal(v1Outcome(out))
	if err != nil {
		t.Fatal(err)
	}
	sp := out.PerAgent[0]
	v2 := fmt.Appendf(nil, "[2,%d,%d,%d,%d,%d,%d,%d,%d]", out.Rounds, out.LeaderID, sc.N,
		sp.Nontrivial, sp.Agreement, sp.Leader, sp.Coordination, sp.Discovery)
	if !bytes.HasPrefix(v1, []byte(`{"Rounds":`)) || !bytes.HasPrefix(v3, []byte(`[3,`)) {
		t.Fatalf("fixtures: v1 %s, v3 %s", v1, v3)
	}

	for _, foreign := range [][]byte{v1, v2} {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, foreign); err != nil {
			t.Fatal(err)
		}
		missRec, missBytes := run(st, "miss")
		if !bytes.Equal(missBytes, v3) || st.Stats().Puts != 2 {
			t.Fatalf("recompute did not supersede %s: stored %s, %d puts", foreign, missBytes, st.Stats().Puts)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		diskRec, diskBytes := run(st, "disk")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(diskRec, missRec) || !bytes.Equal(diskBytes, v3) {
			t.Fatalf("disk hit after reopen: record %s stored %s, want %s and %s", diskRec, diskBytes, missRec, v3)
		}
	}
}
