package campaign

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ringsym/internal/canon"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// symmetricMatrix is a sweep in which every setting appears in 6 symmetric
// variants (3 phases × 2 reflections) that the cache must collapse.
func symmetricMatrix() Matrix {
	return Matrix{
		Sizes:       []int{8},
		Seeds:       []int64{1, 2},
		Phases:      []int{0, 1, 2},
		Reflections: []bool{false, true},
	}
}

// TestCacheMatchesUncached is the end-to-end soundness test of the memo
// cache: the same sweep run with and without the cache must produce
// field-identical records (modulo the cache annotation itself), including
// per-stage splits translated back from the canonical frame.
func TestCacheMatchesUncached(t *testing.T) {
	scenarios, err := symmetricMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunAll(context.Background(), scenarios, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	cached, err := RunAll(context.Background(), scenarios, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(cached) {
		t.Fatalf("record counts differ: %d vs %d", len(plain), len(cached))
	}
	solvable := 0
	for i := range plain {
		want, got := plain[i], cached[i]
		if want.Status == StatusUnsolvable {
			// Unsolvable settings (Lemma 5) are classified before anything
			// runs and must not touch the cache.
			if got.Cache != "" {
				t.Errorf("%s: unsolvable record touched the cache", got.Key())
			}
			want.Wall, got.Wall = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("record %d differs:\ncached: %+v\nplain:  %+v", i, got, want)
			}
			continue
		}
		solvable++
		if got.Cache == "" {
			t.Errorf("%s: cached run lacks cache annotation", got.Key())
		}
		got.Cache = ""
		want.Wall, got.Wall = 0, 0
		if !reflect.DeepEqual(want, got) {
			t.Errorf("record %d differs:\ncached: %+v\nplain:  %+v", i, got, want)
		}
		if want.Status != StatusOK || !want.Verified {
			t.Errorf("%s: status %s verified=%v", want.Key(), want.Status, want.Verified)
		}
	}
	if solvable == 0 {
		t.Fatal("sweep contained no solvable scenarios")
	}

	// 6 symmetric variants per solvable orbit: exactly one miss each, the
	// rest served as hits or in-flight dedups.
	st := cache.Stats()
	orbits := solvable / 6
	if int(st.Misses) != orbits {
		t.Errorf("misses = %d, want %d", st.Misses, orbits)
	}
	if int(st.Hits+st.Dedups) != solvable-orbits {
		t.Errorf("hits+dedups = %d, want %d", st.Hits+st.Dedups, solvable-orbits)
	}
}

// TestCacheSequentialDeterministicKinds: with one worker there is no
// scheduling race, so the first member of every orbit is the miss and every
// later member is a plain hit.
func TestCacheSequentialDeterministicKinds(t *testing.T) {
	scenarios, err := Matrix{Sizes: []int{8}, Phases: []int{0, 1, 2, 3}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	recs, err := RunAll(context.Background(), scenarios, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		want := "hit"
		if rec.Phase == 0 {
			want = "miss"
		}
		if rec.Status == StatusUnsolvable {
			if rec.Cache != "" {
				t.Errorf("%s: unsolvable record must not touch the cache", rec.Key())
			}
			continue
		}
		if rec.Cache != want {
			t.Errorf("%s: cache = %q, want %q", rec.Key(), rec.Cache, want)
		}
	}
	if st := cache.Stats(); st.Dedups != 0 {
		t.Errorf("sequential run recorded %d dedups", st.Dedups)
	}
}

// TestScenarioJSONBackwardCompatible: the new phase/reflect/cache fields must
// vanish from the serialised form when unset, keeping cache-less exports
// byte-identical to earlier builds.
func TestScenarioJSONBackwardCompatible(t *testing.T) {
	rec := Record{Scenario: Scenario{Index: 3, Task: TaskCoordinate, Model: "basic", N: 8, IDBound: 32, Seed: 1}, Status: StatusOK, Verified: true, Rounds: 10}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"phase", "reflect", "cache"} {
		if strings.Contains(string(raw), banned) {
			t.Errorf("zero-valued %q leaked into the JSON: %s", banned, raw)
		}
	}
	rec.Phase, rec.Reflect, rec.Cache = 2, true, "hit"
	raw, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, wanted := range []string{`"phase":2`, `"reflect":true`, `"cache":"hit"`} {
		if !strings.Contains(string(raw), wanted) {
			t.Errorf("missing %s in %s", wanted, raw)
		}
	}
}

// TestExpandPhases: the phase/reflection axes multiply the scenario list and
// default to the single untransformed variant.
func TestExpandPhases(t *testing.T) {
	base, err := Matrix{Sizes: []int{8}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range base {
		if sc.Phase != 0 || sc.Reflect {
			t.Fatalf("default expansion contains transformed scenario %+v", sc)
		}
	}
	sym, err := symmetricMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(base) * 2 * 6; len(sym) != want { // 2 seeds × 3 phases × 2 reflections
		t.Fatalf("symmetric expansion has %d scenarios, want %d", len(sym), want)
	}
	for i, sc := range sym {
		if sc.Index != i {
			t.Fatalf("scenario %d has index %d", i, sc.Index)
		}
	}
}

// TestSummaryCacheColumns: the cache writers add the three columns, the
// plain writers stay byte-compatible.
func TestSummaryCacheColumns(t *testing.T) {
	agg := NewAggregator()
	sc := Scenario{Task: TaskCoordinate, Model: "basic", N: 8, Seed: 1}
	agg.Add(Record{Scenario: sc, Status: StatusOK, Rounds: 10, Cache: "miss"})
	sc.Seed = 2
	agg.Add(Record{Scenario: sc, Status: StatusOK, Rounds: 12, Cache: "hit"})
	sc.Seed = 3
	agg.Add(Record{Scenario: sc, Status: StatusOK, Rounds: 12, Cache: "dedup"})
	if agg.CacheMisses != 1 || agg.CacheHits != 1 || agg.CacheDedups != 1 {
		t.Fatalf("totals: %d/%d/%d", agg.CacheMisses, agg.CacheHits, agg.CacheDedups)
	}
	rows := agg.Summary()
	if len(rows) != 1 || rows[0].CacheMisses != 1 || rows[0].CacheHits != 1 || rows[0].CacheDedups != 1 {
		t.Fatalf("rows: %+v", rows)
	}

	var plain, withCache strings.Builder
	if err := WriteSummaryCSV(&plain, rows, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteSummaryCSV(&withCache, rows, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "cache") {
		t.Errorf("plain CSV mentions the cache:\n%s", plain.String())
	}
	if !strings.Contains(withCache.String(), "cache_misses,cache_hits,cache_dedups") ||
		!strings.Contains(withCache.String(), ",1,1,1") {
		t.Errorf("cache CSV misses columns:\n%s", withCache.String())
	}
	md := FormatSummaryMarkdown(rows, true)
	if !strings.Contains(md, "| miss | hit | dedup |") || !strings.Contains(md, " 1 | 1 | 1 |") {
		t.Errorf("cache markdown misses columns:\n%s", md)
	}
	if strings.Contains(FormatSummaryMarkdown(rows, false), "dedup") {
		t.Errorf("plain markdown mentions the cache")
	}
}

// TestCacheCancellation: a cancelled context aborts a cached-path scenario
// within one round, and the failed outcome is not cached.
func TestCacheCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := NewCache(0)
	sc := Scenario{Task: TaskCoordinate, Model: "basic", N: 9, IDBound: 36, Seed: 1}
	rec := RunScenarioContext(ctx, sc, Options{Cache: cache})
	if rec.Status != StatusFailed {
		t.Fatalf("status = %s", rec.Status)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled run was cached: %+v", st)
	}
	// The same scenario succeeds afterwards and is cached.
	rec = RunScenarioContext(context.Background(), sc, Options{Cache: cache})
	if rec.Status != StatusOK || rec.Cache != "miss" {
		t.Fatalf("retry: %+v", rec)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

// TestUpperBounds: the pre-expansion bounds must dominate the real expansion
// and saturate instead of overflowing on abusive axis products.
func TestUpperBounds(t *testing.T) {
	m := symmetricMatrix()
	scenarios, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bound, maxN := m.UpperBounds()
	if bound < len(scenarios) {
		t.Fatalf("bound %d < actual expansion %d", bound, len(scenarios))
	}
	if maxN != 9 { // sizes {8}: even keeps 8, odd parity adjusts to 9
		t.Fatalf("maxN = %d, want 9", maxN)
	}
	huge := Matrix{Seeds: make([]int64, 1<<20), Phases: make([]int, 1<<20), Sizes: []int{1 << 30}}
	bound, maxN = huge.UpperBounds()
	if bound < 1<<40 || bound < 0 {
		t.Fatalf("huge bound = %d, want saturated positive", bound)
	}
	if maxN < 1<<30 {
		t.Fatalf("huge maxN = %d", maxN)
	}

	// Axis lengths tuned so a post-multiply saturation check would wrap
	// int64 negative and wave the spec through the serving cap; the bound
	// must saturate positive instead.
	wrap := Matrix{
		CommonSense: make([]bool, 4000),
		Sizes:       make([]int, 100000),
		Seeds:       make([]int64, 100000),
		Phases:      make([]int, 100000),
		Reflections: []bool{false, false, false},
	}
	for i := range wrap.Sizes {
		wrap.Sizes[i] = 8
	}
	bound, _ = wrap.UpperBounds()
	if bound <= 0 {
		t.Fatalf("wrap-tuned bound = %d, want saturated positive", bound)
	}
}

// TestProbeCache: a probe answers only already-cached outcomes, as a record
// field-identical to the executed one (modulo the hit annotation and Wall),
// and never executes or joins anything itself.  Probe and run share one
// pipeline, so over every scenario of the symmetric matrix and the golden
// grid, plus invalid ones, a probe after the run must hit exactly when the
// run produced a verified outcome; unsolvable and invalid scenarios never hit.
func TestProbeCache(t *testing.T) {
	sym, err := symmetricMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := goldenGrid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := append(sym, grid...)
	scenarios = append(scenarios,
		Scenario{Task: TaskCoordinate, Model: "teleporting", N: 8, IDBound: 32, Seed: 1},
		Scenario{Task: "juggle", Model: "basic", N: 8, IDBound: 32, Seed: 1},
	)

	cache := NewCache(0)
	opts := Options{Cache: cache}
	for _, sc := range scenarios {
		if _, ok := ProbeCache(sc, Options{}); ok {
			t.Fatalf("%s: probe hit with a nil cache", sc.Key())
		}
		if _, ok := ProbeCache(sc, opts); ok {
			t.Fatalf("%s: probe hit on an empty cache", sc.Key())
		}
	}
	if st := cache.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("probes executed something: %+v", st)
	}

	seen := map[Status]int{}
	for _, sc := range scenarios {
		ran := RunScenarioContext(t.Context(), sc, opts)
		seen[ran.Status]++
		got, ok := ProbeCache(sc, opts)
		if ran.Status != StatusOK {
			if ok {
				t.Errorf("%s: probe hit a %s scenario", sc.Key(), ran.Status)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: probe missed a cached outcome", sc.Key())
			continue
		}
		if got.Cache != "hit" {
			t.Errorf("%s: probe annotation = %q", sc.Key(), got.Cache)
		}
		got.Cache, ran.Cache = "", ""
		got.Wall, ran.Wall = 0, 0
		if !reflect.DeepEqual(got, ran) {
			t.Errorf("probe record differs from executed record:\nprobe %+v\nran   %+v", got, ran)
		}
	}
	if seen[StatusOK] == 0 || seen[StatusUnsolvable] == 0 || seen[StatusFailed] != 2 {
		t.Fatalf("statuses %v: want verified, unsolvable and exactly the 2 invalid scenarios", seen)
	}

	// Any other orbit member of a primed scenario is also answerable.
	cache = NewCache(0)
	opts = Options{Cache: cache}
	sc := Scenario{Task: TaskCoordinate, Model: "basic", N: 8, IDBound: 32, Seed: 1, Phase: 2, Reflect: true}
	if ran := RunScenarioContext(t.Context(), sc, opts); ran.Status != StatusOK || ran.Cache != "miss" {
		t.Fatalf("priming run: %+v", ran)
	}
	sc.Phase, sc.Reflect = 0, false
	if _, ok := ProbeCache(sc, opts); !ok {
		t.Fatal("probe missed a symmetric framing of a cached outcome")
	}
}

// TestProbeCacheMalformedTierOutcome: a disk record can pass the store's CRC
// check and still hold an outcome that does not fit the ring — here a
// PerAgent shorter than n.  A disk hit promotes it into memory, and mapping
// it into a rotated, reflected frame panics.  The pipeline's recover must
// contain that on both paths: the run records a failed scenario, and the
// probe reports a miss instead of panicking on a serving goroutine.
func TestProbeCacheMalformedTierOutcome(t *testing.T) {
	sc := Scenario{Task: TaskCoordinate, Model: "basic", N: 9, IDBound: 36, Seed: 1, Phase: 3, Reflect: true}
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
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	malformed, err := json.Marshal(task.Outcome{Rounds: 10, PerAgent: make([]task.Split, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(cacheKey(canon.Fingerprint(ccfg), sc), malformed); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	cache.AttachTier(st, nil)
	opts := Options{Cache: cache}

	rec := RunScenarioContext(t.Context(), sc, opts)
	if rec.Status != StatusFailed || !strings.HasPrefix(rec.Error, "panic: ") {
		t.Fatalf("run on a malformed outcome: status %s (%s)", rec.Status, rec.Error)
	}
	if rec.Bound == 0 || rec.BoundStr == "" {
		t.Errorf("failed record lost its bound: %+v", rec)
	}
	if st := cache.Stats(); st.DiskHits != 1 || st.Entries != 1 {
		t.Fatalf("malformed outcome not promoted to memory: %+v", st)
	}
	if got, ok := ProbeCache(sc, opts); ok {
		t.Fatalf("probe answered a malformed outcome: %+v", got)
	}
}
