package task

import (
	"context"
	"fmt"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/ring"
)

// discoverSpec runs full location discovery (which includes coordination)
// with the pipeline of the setting's cell (Lemma 16 or Theorem 42).  The
// facade verifies every agent's reconstructed map against the simulator's
// ground truth.
type discoverSpec struct{}

func (discoverSpec) Name() string { return "discover" }

func (discoverSpec) Description() string {
	return "full location discovery: every agent reconstructs the relative map of the whole ring"
}

// Solvable reads the cell without a common sense of direction: Lemma 5
// holds with or without one, and the cells agree.
func (discoverSpec) Solvable(model ring.Model, oddN bool) bool {
	return ringsym.CellOf(model, oddN, false).Discover.Stages != nil
}

func (discoverSpec) Bound(model ring.Model, oddN, commonSense bool, n, idBound int) (float64, string) {
	return ringsym.CellOf(model, oddN, commonSense).Bound(ringsym.LocationDiscovery, n, idBound)
}

func (discoverSpec) Run(ctx context.Context, nw *ringsym.Network, p Params) (Outcome, error) {
	res, err := nw.DiscoverLocationsContext(ctx, ringsym.DiscoveryOptions{CommonSense: p.CommonSense, Seed: p.Seed})
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Rounds: res.Rounds, PerAgent: []Split{{Coordination: res.RoundsCoordination, Discovery: res.RoundsDiscovery}}}
	for _, a := range res.PerAgent {
		if a.IsLeader {
			out.LeaderID = a.ID
		}
	}
	return out, nil
}

func (discoverSpec) Verify(nw *ringsym.Network, p Params, out Outcome) error {
	if len(out.PerAgent) != 1 {
		return fmt.Errorf("discover: %d stage splits, want one", len(out.PerAgent))
	}
	if nw.Engine().IndexOfID(out.LeaderID) < 0 {
		return fmt.Errorf("discover: leader ID %d does not exist in the network", out.LeaderID)
	}
	if lb := ringsym.LocationDiscoveryLowerBound(nw.Model(), nw.N()); out.Rounds < lb {
		return fmt.Errorf("discover: %d rounds beat the Lemma 6 lower bound of %d", out.Rounds, lb)
	}
	return nil
}

func (discoverSpec) MapOutcome(out Outcome, _ canon.Map) Outcome { return out }
