package task

import (
	"context"
	"fmt"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/ring"
)

// coordinateSpec runs the coordination pipeline of the paper: nontrivial
// move, direction agreement, leader election.  The facade verifies that
// exactly one leader was elected.
type coordinateSpec struct{}

func (coordinateSpec) Name() string { return "coordinate" }

func (coordinateSpec) Description() string {
	return "symmetry-breaking pipeline of the paper: nontrivial move, direction agreement, leader election"
}

func (coordinateSpec) Solvable(ring.Model, bool) bool { return true }

func (coordinateSpec) Bound(model ring.Model, oddN, commonSense bool, n, idBound int) (float64, string) {
	// Leader election is the from-scratch total of the pipeline.
	return ringsym.CellOf(model, oddN, commonSense).Bound(ringsym.LeaderElection, n, idBound)
}

func (coordinateSpec) Run(ctx context.Context, nw *ringsym.Network, p Params) (Outcome, error) {
	res, err := nw.CoordinateContext(ctx, ringsym.CoordinationOptions{CommonSense: p.CommonSense, Seed: p.Seed})
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Rounds: res.Rounds, LeaderID: res.LeaderID, PerAgent: make([]Split, len(res.PerAgent))}
	for i, a := range res.PerAgent {
		out.PerAgent[i] = Split{Nontrivial: a.RoundsNontrivial, Agreement: a.RoundsAgreement, Leader: a.RoundsLeader}
	}
	return out, nil
}

func (coordinateSpec) Verify(nw *ringsym.Network, p Params, out Outcome) error {
	if len(out.PerAgent) != nw.N() {
		return fmt.Errorf("coordinate: %d per-agent splits for %d agents", len(out.PerAgent), nw.N())
	}
	if nw.Engine().IndexOfID(out.LeaderID) < 0 {
		return fmt.Errorf("coordinate: leader ID %d does not exist in the network", out.LeaderID)
	}
	if out.Rounds <= 0 {
		return fmt.Errorf("coordinate: nonpositive round count %d", out.Rounds)
	}
	return nil
}

func (coordinateSpec) MapOutcome(out Outcome, m canon.Map) Outcome { return Reframe(out, m) }
