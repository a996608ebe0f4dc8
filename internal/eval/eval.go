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
// cache: each regeneration executes every protocol again.  The harness is
// used both by cmd/benchtables and by the testing.B benchmarks in the
// repository root.
package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ringsym/internal/campaign"
	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
	"ringsym/internal/task"
)

// Setting identifies a row of Table I / Table II.
type Setting struct {
	// Name is the row label used by the paper.
	Name string
	// Model is the movement model.
	Model ring.Model
	// OddN selects an odd number of agents.
	OddN bool
	// CommonSense marks the Table II variant (a-priori common direction).
	CommonSense bool
}

// Table1Settings are the rows of Table I (no common sense of direction;
// orientations are adversarially mixed).
func Table1Settings() []Setting {
	return []Setting{
		{Name: "odd n", Model: ring.Basic, OddN: true},
		{Name: "basic model, even n", Model: ring.Basic},
		{Name: "lazy model, even n", Model: ring.Lazy},
		{Name: "perceptive model, even n", Model: ring.Perceptive},
	}
}

// Table2Settings are the rows of Table II (common sense of direction).
func Table2Settings() []Setting {
	return []Setting{
		{Name: "odd n", Model: ring.Basic, OddN: true, CommonSense: true},
		{Name: "basic model, even n", Model: ring.Basic, CommonSense: true},
		{Name: "lazy model, even n", Model: ring.Lazy, CommonSense: true},
		{Name: "perceptive model, even n", Model: ring.Perceptive, CommonSense: true},
	}
}

// Measurement is one measured cell sample.
type Measurement struct {
	Setting  Setting
	Problem  task.Problem
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
func network(s Setting, n, idBound int, seed int64) (*engine.Network, error) {
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
func scenario(s Setting, task campaign.Task, n, idBound int, seed int64) campaign.Scenario {
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

// coordinationSplit converts the raw per-stage rounds of a campaign record
// into the from-scratch costs of the three coordination problems (each cost
// is the number of rounds after which the corresponding problem is solved).
func coordinationSplit(s Setting, rec campaign.Record) (nm, da, le int) {
	if s.CommonSense {
		// Direction agreement is given; leader election comes first and the
		// nontrivial move is derived from the leader (Lemma 10).
		le = rec.RoundsLeader
		nm = rec.RoundsLeader + rec.RoundsNontrivial
		da = 0
		return nm, da, le
	}
	nm = rec.RoundsNontrivial
	da = rec.RoundsNontrivial + rec.RoundsAgreement
	le = da + rec.RoundsLeader
	return nm, da, le
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
func MeasureCoordination(ctx context.Context, s Setting, n, idBound int, seed int64) (nm, da, le int, err error) {
	rec := campaign.RunScenarioContext(ctx, scenario(s, campaign.TaskCoordinate, n, idBound, seed), campaign.Options{})
	if err := recordErr(rec); err != nil {
		return 0, 0, 0, err
	}
	nm, da, le = coordinationSplit(s, rec)
	return nm, da, le, nil
}

// MeasureLocationDiscovery measures the total location-discovery cost and its
// split into the o(n) coordination part and the main discovery part.  The
// solvable return value is false when the problem is unsolvable in the
// setting (Lemma 5); ctx cancels the protocol run.
func MeasureLocationDiscovery(ctx context.Context, s Setting, n, idBound int, seed int64) (total, coordination, main int, solvable bool, err error) {
	rec := campaign.RunScenarioContext(ctx, scenario(s, campaign.TaskDiscover, n, idBound, seed), campaign.Options{})
	if err := recordErr(rec); err != nil {
		return 0, 0, 0, false, err
	}
	if rec.Status == campaign.StatusUnsolvable {
		return 0, 0, 0, false, nil
	}
	return rec.Rounds, rec.RoundsCoordination, rec.RoundsDiscovery, true, nil
}

// Bound returns the paper's asymptotic bound (as a plain formula without the
// hidden constant) and its human-readable form for a cell.  It reads the
// bound tables of internal/task — the same source every task's per-record
// bound comes from, so the table columns cannot drift from sweep records.
func Bound(s Setting, p task.Problem, n, idBound int) (float64, string) {
	return task.Bound(s.Model, s.OddN, s.CommonSense, p, n, idBound)
}

// TableRowsContext measures every cell of the given settings for the sweep.
// It is a thin pre-baked campaign: the settings expand into one coordinate
// and one discover scenario per (setting, size) cell, run on the campaign
// worker pool, and the records are folded back into table measurements.  A
// cancelled ctx aborts in-flight scenarios within one round and returns the
// context error.
func TableRowsContext(ctx context.Context, settings []Setting, cfg SweepConfig) ([]Measurement, error) {
	cfg.fill()
	type cell struct {
		s Setting
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
			return nil, fmt.Errorf("eval: %s n=%d: %w", c.s.Name, c.n, err)
		}
		if err := recordErr(discRec); err != nil {
			return nil, fmt.Errorf("eval: %s n=%d location discovery: %w", c.s.Name, c.n, err)
		}
		nm, da, le := coordinationSplit(c.s, coordRec)
		rounds := map[task.Problem]int{
			task.LeaderElection:     le,
			task.NontrivialMove:     nm,
			task.DirectionAgreement: da,
			task.LocationDiscovery:  discRec.Rounds,
		}
		problems := []task.Problem{task.LeaderElection, task.NontrivialMove, task.DirectionAgreement, task.LocationDiscovery}
		if c.s.CommonSense {
			// Table II has no direction-agreement column: it is given.
			problems = []task.Problem{task.LeaderElection, task.NontrivialMove, task.LocationDiscovery}
		}
		for _, p := range problems {
			bound, boundStr := Bound(c.s, p, c.n, coordRec.IDBound)
			m := Measurement{
				Setting: c.s, Problem: p, N: c.n, IDBound: coordRec.IDBound,
				Rounds: rounds[p], Bound: bound, BoundStr: boundStr,
				Solvable: true,
			}
			if p == task.LocationDiscovery && discRec.Status == campaign.StatusUnsolvable {
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
		if m.Setting.Name != lastSetting {
			lastSetting = m.Setting.Name
			fmt.Fprintf(&b, "\n[%s]  (model=%s, common sense=%v)\n", m.Setting.Name, m.Setting.Model, m.Setting.CommonSense)
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
