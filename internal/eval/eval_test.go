package eval

import (
	"context"
	"strings"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/ring"
)

func TestAdjustParity(t *testing.T) {
	if adjustParity(8, false) != 8 || adjustParity(8, true) != 9 {
		t.Error("adjustParity wrong for 8")
	}
	if adjustParity(9, true) != 9 || adjustParity(9, false) != 10 {
		t.Error("adjustParity wrong for 9")
	}
}

func TestBoundFormulas(t *testing.T) {
	odd := Setting{Name: "odd n", Model: ring.Basic, OddN: true}
	if v, s := Bound(odd, DirectionAgreement, 9, 36); v != 1 || s != "O(1)" {
		t.Errorf("odd DA bound = %v %q", v, s)
	}
	basicEven := Setting{Name: "basic even", Model: ring.Basic}
	if _, s := Bound(basicEven, LocationDiscovery, 8, 32); s != "not solvable" {
		t.Errorf("basic even LD bound = %q", s)
	}
	lazyEven := Setting{Name: "lazy even", Model: ring.Lazy}
	if v, _ := Bound(lazyEven, LocationDiscovery, 8, 32); v <= 8 {
		t.Errorf("lazy even LD bound = %v, want > n", v)
	}
	perc := Setting{Name: "perceptive even", Model: ring.Perceptive}
	if _, s := Bound(perc, LeaderElection, 16, 64); !strings.Contains(s, "sqrt") {
		t.Errorf("perceptive LE bound = %q", s)
	}
	common := Setting{Name: "basic even", Model: ring.Basic, CommonSense: true}
	if _, s := Bound(common, LeaderElection, 8, 32); s != "O(log^2 N)" {
		t.Errorf("common basic even LE bound = %q", s)
	}
	commonPerc := Setting{Name: "perceptive even", Model: ring.Perceptive, CommonSense: true}
	if _, s := Bound(commonPerc, LocationDiscovery, 8, 32); !strings.Contains(s, "n/2") {
		t.Errorf("common perceptive LD bound = %q", s)
	}
}

// TestTable1SmallSweep runs a miniature Table I sweep and sanity-checks the
// measured shapes: coordination is cheap for odd n, location discovery costs
// about n in the lazy model and about n/2 (plus overhead) in the perceptive
// model, and the basic model with even n cannot solve location discovery.
func TestTable1SmallSweep(t *testing.T) {
	rows, err := TableRowsContext(t.Context(), Table1Settings(), SweepConfig{Sizes: []int{8, 16}, IDBoundFactor: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*2*4 {
		t.Fatalf("got %d measurements, want 32", len(rows))
	}
	for _, m := range rows {
		switch {
		case m.Setting.Name == "basic model, even n" && m.Problem == LocationDiscovery:
			if m.Solvable {
				t.Error("basic even location discovery should be unsolvable")
			}
		case m.Problem == LocationDiscovery:
			if !m.Solvable || m.Rounds < m.N/2 {
				t.Errorf("%s n=%d: LD rounds %d implausibly small", m.Setting.Name, m.N, m.Rounds)
			}
		default:
			if m.Rounds <= 0 {
				t.Errorf("%s %s n=%d: nonpositive rounds", m.Setting.Name, m.Problem, m.N)
			}
		}
	}
	text := Format("Table I", rows)
	if !strings.Contains(text, "Table I") || !strings.Contains(text, "odd n") {
		t.Error("formatted table missing expected content")
	}
}

func TestTable2SmallSweep(t *testing.T) {
	rows, err := TableRowsContext(t.Context(), Table2Settings(), SweepConfig{Sizes: []int{8}, IDBoundFactor: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 4 settings x 1 size x 3 problems.
	if len(rows) != 12 {
		t.Fatalf("got %d measurements, want 12", len(rows))
	}
	for _, m := range rows {
		if m.Problem == DirectionAgreement {
			t.Error("Table II should not include direction agreement")
		}
		// With a common sense of direction every coordination problem is
		// polylogarithmic: far below n rounds for these sizes.
		if m.Problem == LeaderElection && m.Rounds > 200 {
			t.Errorf("%s: leader election took %d rounds", m.Setting.Name, m.Rounds)
		}
	}
}

func TestMeasureReductions(t *testing.T) {
	rs, err := MeasureReductions(context.Background(), Setting{Model: ring.Lazy}, 8, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("got %d reductions, want 6", len(rs))
	}
	for _, r := range rs {
		if r.Rounds <= 0 {
			t.Errorf("%s -> %s: nonpositive rounds", r.From, r.To)
		}
		// O(1) arrows must be constant-ish.
		if r.BoundStr == "O(1)" && r.Rounds > 8 {
			t.Errorf("%s -> %s: %d rounds for an O(1) reduction", r.From, r.To, r.Rounds)
		}
	}
	if s := FormatReductions("Figure 1", rs); !strings.Contains(s, "->") {
		t.Error("FormatReductions output malformed")
	}
}

func TestMeasureRingDist(t *testing.T) {
	samples, err := MeasureRingDist(context.Background(), []int{8, 16}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].Rounds <= 0 || samples[1].Rounds <= samples[0].Rounds/4 {
		t.Fatalf("unexpected samples %+v", samples)
	}
	if s := FormatRingDist(samples); !strings.Contains(s, "Figure 3") {
		t.Error("FormatRingDist output malformed")
	}
}

func TestMeasureDistinguishers(t *testing.T) {
	samples, err := MeasureDistinguishers([][2]int{{8, 2}, {12, 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.MinPrefix <= 0 {
			t.Errorf("N=%d n=%d: no distinguishing prefix found", s.Universe, s.SubsetSize)
		}
		if s.LowerBound <= 0 {
			t.Errorf("N=%d n=%d: nonpositive lower bound", s.Universe, s.SubsetSize)
		}
	}
	if s := FormatDistinguishers(samples); !strings.Contains(s, "lower bound") {
		t.Error("FormatDistinguishers output malformed")
	}
}

// TestTableRowsCached: a table sweep with the memo cache produces the same
// measurements as the uncached sweep, and a second regeneration over the
// same cache is served from it (one miss per scenario, then all hits).
func TestTableRowsCached(t *testing.T) {
	cfg := SweepConfig{Sizes: []int{8}, IDBoundFactor: 4, Seed: 5}
	plain, err := TableRowsContext(t.Context(), Table1Settings(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = campaign.NewCache(0)
	first, err := TableRowsContext(t.Context(), Table1Settings(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := TableRowsContext(t.Context(), Table1Settings(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(plain) || len(again) != len(plain) {
		t.Fatalf("measurement counts differ: %d/%d vs %d", len(first), len(again), len(plain))
	}
	for i := range plain {
		if first[i] != plain[i] || again[i] != plain[i] {
			t.Errorf("measurement %d differs across cache modes:\nplain %+v\nfirst %+v\nagain %+v", i, plain[i], first[i], again[i])
		}
	}
	st := cfg.Cache.Stats()
	if st.Misses == 0 || st.Hits < st.Misses {
		t.Fatalf("second regeneration not served from the cache: %+v", st)
	}
}
