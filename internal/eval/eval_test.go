package eval

import (
	"context"
	"strings"
	"testing"

	"ringsym"
	"ringsym/internal/campaign"
	"ringsym/internal/ring"
)

func TestAdjustParity(t *testing.T) {
	if campaign.AdjustParity(8, false) != 8 || campaign.AdjustParity(8, true) != 9 {
		t.Error("AdjustParity wrong for 8")
	}
	if campaign.AdjustParity(9, true) != 9 || campaign.AdjustParity(9, false) != 10 {
		t.Error("AdjustParity wrong for 9")
	}
}

func TestBoundFormulas(t *testing.T) {
	odd := ringsym.CellOf(ring.Basic, true, false)
	if v, s := odd.Bound(ringsym.DirectionAgreement, 9, 36); v != 1 || s != "O(1)" {
		t.Errorf("odd DA bound = %v %q", v, s)
	}
	basicEven := ringsym.CellOf(ring.Basic, false, false)
	if _, s := basicEven.Bound(ringsym.LocationDiscovery, 8, 32); s != "not solvable" {
		t.Errorf("basic even LD bound = %q", s)
	}
	lazyEven := ringsym.CellOf(ring.Lazy, false, false)
	if v, _ := lazyEven.Bound(ringsym.LocationDiscovery, 8, 32); v <= 8 {
		t.Errorf("lazy even LD bound = %v, want > n", v)
	}
	perc := ringsym.CellOf(ring.Perceptive, false, false)
	if _, s := perc.Bound(ringsym.LeaderElection, 16, 64); !strings.Contains(s, "sqrt") {
		t.Errorf("perceptive LE bound = %q", s)
	}
	common := ringsym.CellOf(ring.Basic, false, true)
	if _, s := common.Bound(ringsym.LeaderElection, 8, 32); s != "O(log^2 N)" {
		t.Errorf("common basic even LE bound = %q", s)
	}
	commonPerc := ringsym.CellOf(ring.Perceptive, false, true)
	if _, s := commonPerc.Bound(ringsym.LocationDiscovery, 8, 32); !strings.Contains(s, "n/2") {
		t.Errorf("common perceptive LD bound = %q", s)
	}
}

// TestTable1SmallSweep runs a miniature Table I sweep and sanity-checks the
// measured shapes: coordination is cheap for odd n, location discovery costs
// about n in the lazy model and about n/2 (plus overhead) in the perceptive
// model, and the basic model with even n cannot solve location discovery.
func TestTable1SmallSweep(t *testing.T) {
	rows, err := TableRowsContext(t.Context(), ringsym.Table(false), SweepConfig{Sizes: []int{8, 16}, IDBoundFactor: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*2*4 {
		t.Fatalf("got %d measurements, want 32", len(rows))
	}
	for _, m := range rows {
		switch {
		case m.Setting.Label == "basic model, even n" && m.Problem == ringsym.LocationDiscovery:
			if m.Solvable {
				t.Error("basic even location discovery should be unsolvable")
			}
		case m.Problem == ringsym.LocationDiscovery:
			if !m.Solvable || m.Rounds < m.N/2 {
				t.Errorf("%s n=%d: LD rounds %d implausibly small", m.Setting.Label, m.N, m.Rounds)
			}
		default:
			if m.Rounds <= 0 {
				t.Errorf("%s %s n=%d: nonpositive rounds", m.Setting.Label, m.Problem, m.N)
			}
		}
	}
	text := Format("Table I", rows)
	if !strings.Contains(text, "Table I") || !strings.Contains(text, "odd n") {
		t.Error("formatted table missing expected content")
	}
}

func TestTable2SmallSweep(t *testing.T) {
	rows, err := TableRowsContext(t.Context(), ringsym.Table(true), SweepConfig{Sizes: []int{8}, IDBoundFactor: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 4 settings x 1 size x 3 problems.
	if len(rows) != 12 {
		t.Fatalf("got %d measurements, want 12", len(rows))
	}
	for _, m := range rows {
		if m.Problem == ringsym.DirectionAgreement {
			t.Error("Table II should not include direction agreement")
		}
		// With a common sense of direction every coordination problem is
		// polylogarithmic: far below n rounds for these sizes.
		if m.Problem == ringsym.LeaderElection && m.Rounds > 200 {
			t.Errorf("%s: leader election took %d rounds", m.Setting.Label, m.Rounds)
		}
	}
}

func TestMeasureReductions(t *testing.T) {
	rs, err := MeasureReductions(context.Background(), ringsym.CellOf(ring.Lazy, false, false), 8, 32, 3)
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
