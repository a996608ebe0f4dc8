package campaign

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"ringsym/internal/obs"
)

// bruteForcePercentile is the reference nearest-rank percentile over the raw
// samples.
func bruteForcePercentile(samples []int, p int) int {
	sorted := append([]int(nil), samples...)
	sort.Ints(sorted)
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		samples := make([]int, n)
		hist := make(map[int]int)
		for i := range samples {
			v := rng.Intn(60) // heavy ties, like round counts
			samples[i] = v
			hist[v]++
		}
		for _, p := range []int{1, 25, 50, 75, 90, 99, 100} {
			got := obs.Percentile(hist, n, p)
			want := bruteForcePercentile(samples, p)
			if got != want {
				t.Fatalf("trial %d: p%d of %d samples: got %d, want %d", trial, p, n, got, want)
			}
		}
	}
}

func record(sc Scenario, status Status, rounds int, bound float64) Record {
	return Record{Scenario: sc, Status: status, Rounds: rounds, Bound: bound, Wall: time.Millisecond}
}

func TestAggregatorSummary(t *testing.T) {
	sc := Scenario{Task: TaskCoordinate, Model: "lazy", N: 8}
	agg := NewAggregator()
	for i, rounds := range []int{10, 20, 30, 40} {
		r := record(sc, StatusOK, rounds, 10)
		r.Index = i
		r.Seed = int64(i)
		agg.Add(r)
	}
	fail := record(sc, StatusFailed, 0, 10)
	fail.Index = 4
	agg.Add(fail)
	other := record(Scenario{Task: TaskDiscover, Model: "basic", N: 8}, StatusUnsolvable, 0, 0)
	other.Index = 5
	agg.Add(other)

	if agg.Total != 6 || agg.OK != 4 || agg.Failed != 1 || agg.Unsolvable != 1 {
		t.Fatalf("totals wrong: %+v", agg)
	}
	rows := agg.Summary()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Rows are sorted by task: coordinate before discover.
	r := rows[0]
	if r.Task != TaskCoordinate || r.Count != 5 || r.Failed != 1 {
		t.Fatalf("coordinate row wrong: %+v", r)
	}
	if r.MinRounds != 10 || r.MaxRounds != 40 || r.MeanRounds != 25 {
		t.Fatalf("min/max/mean wrong: %+v", r)
	}
	if r.P50Rounds != 20 || r.P90Rounds != 40 {
		t.Fatalf("percentiles wrong: %+v", r)
	}
	if r.BoundRatio != 2.5 { // mean of 1,2,3,4
		t.Fatalf("bound ratio = %v, want 2.5", r.BoundRatio)
	}
	if rows[1].Unsolvable != 1 || rows[1].Count != 1 {
		t.Fatalf("discover row wrong: %+v", rows[1])
	}

	var csv strings.Builder
	if err := WriteSummaryCSV(&csv, rows, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "coordinate,lazy,even,common,no,8,5,1,0,10,40,25.000,20,40,40,2.5000") {
		t.Errorf("unexpected CSV:\n%s", csv.String())
	}
	md := FormatSummaryMarkdown(rows, false)
	if !strings.Contains(md, "| coordinate | lazy |") || !strings.Contains(md, "| discover | basic |") {
		t.Errorf("unexpected markdown:\n%s", md)
	}
}
