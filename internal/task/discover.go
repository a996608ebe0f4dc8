package task

import (
	"context"
	"fmt"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/ring"
)

// discoverSpec runs full location discovery (which includes coordination)
// with the best algorithm for the model and parity (Lemma 16 or Theorem 42).
// The facade verifies every agent's reconstructed map against the simulator's
// ground truth.
type discoverSpec struct{}

func (discoverSpec) Name() string { return "discover" }

func (discoverSpec) Description() string {
	return "full location discovery: every agent reconstructs the relative map of the whole ring"
}

func (discoverSpec) Solvable(model ring.Model, oddN bool) bool {
	return Solvable(model, oddN, LocationDiscovery)
}

func (discoverSpec) Bound(model ring.Model, oddN, commonSense bool, n, idBound int) (float64, string) {
	return Bound(model, oddN, commonSense, LocationDiscovery, n, idBound)
}

func (discoverSpec) Run(ctx context.Context, nw *ringsym.Network, p Params) (Outcome, error) {
	res, err := nw.DiscoverLocationsContext(ctx, ringsym.DiscoveryOptions{CommonSense: p.CommonSense, Seed: p.Seed})
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Rounds: res.Rounds, PerAgent: make([]Split, len(res.PerAgent))}
	for i, a := range res.PerAgent {
		out.PerAgent[i] = Split{Coordination: a.RoundsCoordination, Discovery: a.RoundsDiscovery}
		if a.IsLeader {
			out.LeaderID = a.ID
		}
	}
	return out, nil
}

func (discoverSpec) Verify(nw *ringsym.Network, p Params, out Outcome) error {
	if len(out.PerAgent) != nw.N() {
		return fmt.Errorf("discover: %d per-agent splits for %d agents", len(out.PerAgent), nw.N())
	}
	if nw.Engine().IndexOfID(out.LeaderID) < 0 {
		return fmt.Errorf("discover: leader ID %d does not exist in the network", out.LeaderID)
	}
	if lb := ringsym.LocationDiscoveryLowerBound(nw.Model(), nw.N()); out.Rounds < lb {
		return fmt.Errorf("discover: %d rounds beat the Lemma 6 lower bound of %d", out.Rounds, lb)
	}
	return nil
}

func (discoverSpec) MapOutcome(out Outcome, m canon.Map) Outcome { return Reframe(out, m) }
