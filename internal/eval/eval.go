// Package eval is the experiment harness that regenerates the evaluation of
// the paper: Table I and Table II (round complexities of the coordination and
// location-discovery problems across models and parities), the reduction
// complexities of Figures 1 and 2, the RingDist behaviour illustrated by
// Figure 3, and the distinguisher-size experiments behind Section IV
// (Corollaries 26-29).
//
// Every measurement runs real protocols on the simulated ring and reports the
// observed number of rounds next to the theoretical bound of the paper.
// Table I/II are one campaign over internal/campaign, run without the memo
// cache: each regeneration executes every protocol again.  The rows, columns
// and bounds are those of the ringsym cells (ringsym.Table).  The harness is
// used both by cmd/benchtables and by the testing.B benchmarks in the
// repository root.
package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ringsym"
	"ringsym/internal/campaign"
	"ringsym/internal/engine"
	"ringsym/internal/netgen"
)

// Measurement is one measured cell sample.
type Measurement struct {
	Setting  *ringsym.Cell
	Problem  ringsym.Problem
	N        int
	IDBound  int
	Rounds   int
	Bound    float64
	BoundStr string
	Solvable bool
}

// SweepConfig controls a table sweep.
type SweepConfig struct {
	// Sizes are the network sizes n to measure (adjusted by one to match the
	// parity of the setting).
	Sizes []int
	// IDBoundFactor sets N = IDBoundFactor·n (defaults to 4).
	IDBoundFactor int
	// Seed drives the pseudo-random configurations and schedules.
	Seed int64
}

func (c *SweepConfig) fill() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{16, 32, 64, 128}
	}
	if c.IDBoundFactor <= 0 {
		c.IDBoundFactor = 4
	}
}

// network builds the network for one sample of a setting.
func network(s *ringsym.Cell, n, idBound int, seed int64) (*engine.Network, error) {
	cfg, err := netgen.Generate(netgen.Options{
		N:                   n,
		IDBound:             idBound,
		Model:               s.Model,
		MixedChirality:      !s.CommonSense,
		ForceSplitChirality: !s.CommonSense,
		Seed:                seed,
	})
	if err != nil {
		return nil, err
	}
	return engine.New(cfg)
}

// scenario translates a table setting into a campaign scenario spec.
func scenario(s *ringsym.Cell, task campaign.Task, n, idBound int, seed int64) campaign.Scenario {
	return campaign.Scenario{
		Task:           task,
		Model:          s.Model.String(),
		N:              n,
		IDBound:        idBound,
		MixedChirality: !s.CommonSense,
		CommonSense:    s.CommonSense,
		Seed:           seed,
	}
}

// coordinationCosts returns the from-scratch cost of each coordination
// problem the cell's Coordinate pipeline solves: the rounds of its stages up
// to the one that solves it.
func coordinationCosts(s *ringsym.Cell, rec campaign.Record) map[ringsym.Problem]int {
	stageRounds := map[ringsym.Problem]int{
		ringsym.NontrivialMove:     rec.RoundsNontrivial,
		ringsym.DirectionAgreement: rec.RoundsAgreement,
		ringsym.LeaderElection:     rec.RoundsLeader,
	}
	costs := map[ringsym.Problem]int{}
	sum := 0
	for _, st := range s.Coordinate.Stages {
		sum += stageRounds[st.Solves]
		costs[st.Solves] = sum
	}
	return costs
}

// recordErr converts a failed campaign record into an error.
func recordErr(rec campaign.Record) error {
	if rec.Status == campaign.StatusFailed {
		return errors.New(rec.Error)
	}
	return nil
}

// MeasureCoordination measures, for one configuration, the from-scratch round
// cost of the three coordination problems on a single scenario of the
// campaign runner; ctx cancels the protocol run.
func MeasureCoordination(ctx context.Context, s *ringsym.Cell, n, idBound int, seed int64) (nm, da, le int, err error) {
	rec := campaign.RunScenarioContext(ctx, scenario(s, campaign.TaskCoordinate, n, idBound, seed), campaign.Options{})
	if err := recordErr(rec); err != nil {
		return 0, 0, 0, err
	}
	costs := coordinationCosts(s, rec)
	return costs[ringsym.NontrivialMove], costs[ringsym.DirectionAgreement], costs[ringsym.LeaderElection], nil
}

// MeasureLocationDiscovery measures the total location-discovery cost and its
// split into the o(n) coordination part and the main discovery part.  The
// solvable return value is false when the problem is unsolvable in the
// setting (Lemma 5); ctx cancels the protocol run.
func MeasureLocationDiscovery(ctx context.Context, s *ringsym.Cell, n, idBound int, seed int64) (total, coordination, main int, solvable bool, err error) {
	rec := campaign.RunScenarioContext(ctx, scenario(s, campaign.TaskDiscover, n, idBound, seed), campaign.Options{})
	if err := recordErr(rec); err != nil {
		return 0, 0, 0, false, err
	}
	if rec.Status == campaign.StatusUnsolvable {
		return 0, 0, 0, false, nil
	}
	return rec.Rounds, rec.RoundsCoordination, rec.RoundsDiscovery, true, nil
}

// TableRowsContext measures every cell of the given settings for the sweep.
// It is a thin pre-baked campaign: the settings expand into one coordinate
// and one discover scenario per (setting, size) cell, run on the campaign
// worker pool, and the records are folded back into table measurements.  A
// cancelled ctx aborts in-flight scenarios within one round and returns the
// context error.
func TableRowsContext(ctx context.Context, settings []*ringsym.Cell, cfg SweepConfig) ([]Measurement, error) {
	cfg.fill()
	type cell struct {
		s *ringsym.Cell
		n int
	}
	var cells []cell
	var scenarios []campaign.Scenario
	for _, s := range settings {
		for _, rawN := range cfg.Sizes {
			n := campaign.AdjustParity(rawN, s.OddN)
			idBound := cfg.IDBoundFactor * n
			cells = append(cells, cell{s: s, n: n})
			coord := scenario(s, campaign.TaskCoordinate, n, idBound, cfg.Seed)
			coord.Index = len(scenarios)
			scenarios = append(scenarios, coord)
			disc := scenario(s, campaign.TaskDiscover, n, idBound, cfg.Seed)
			disc.Index = len(scenarios)
			scenarios = append(scenarios, disc)
		}
	}
	recs, err := campaign.RunAll(ctx, scenarios, campaign.Options{})
	if err != nil {
		return nil, fmt.Errorf("eval: campaign: %w", err)
	}
	var out []Measurement
	for i, c := range cells {
		coordRec, discRec := recs[2*i], recs[2*i+1]
		if err := recordErr(coordRec); err != nil {
			return nil, fmt.Errorf("eval: %s n=%d: %w", c.s.Label, c.n, err)
		}
		if err := recordErr(discRec); err != nil {
			return nil, fmt.Errorf("eval: %s n=%d location discovery: %w", c.s.Label, c.n, err)
		}
		rounds := coordinationCosts(c.s, coordRec)
		rounds[ringsym.LocationDiscovery] = discRec.Rounds
		for _, b := range c.s.Bounds {
			m := Measurement{
				Setting: c.s, Problem: b.Problem, N: c.n, IDBound: coordRec.IDBound,
				Rounds: rounds[b.Problem], Solvable: true,
			}
			m.Bound, m.BoundStr = c.s.Bound(b.Problem, c.n, coordRec.IDBound)
			if b.Problem == ringsym.LocationDiscovery && discRec.Status == campaign.StatusUnsolvable {
				m.Solvable = false
				m.Rounds = 0
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// Format renders measurements as a text table grouped by setting.
func Format(title string, ms []Measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	var lastSetting string
	for _, m := range ms {
		if m.Setting.Label != lastSetting {
			lastSetting = m.Setting.Label
			fmt.Fprintf(&b, "\n[%s]  (model=%s, common sense=%v)\n", m.Setting.Label, m.Setting.Model, m.Setting.CommonSense)
			fmt.Fprintf(&b, "  %-22s %6s %8s %10s %12s  %s\n", "problem", "n", "N", "rounds", "bound", "paper bound")
		}
		rounds := fmt.Sprintf("%d", m.Rounds)
		if !m.Solvable {
			rounds = "-"
		}
		fmt.Fprintf(&b, "  %-22s %6d %8d %10s %12.1f  %s\n",
			string(m.Problem), m.N, m.IDBound, rounds, m.Bound, m.BoundStr)
	}
	return b.String()
}
