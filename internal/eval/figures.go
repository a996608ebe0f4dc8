package eval

import (
	"context"
	"fmt"
	"strings"

	"ringsym"
	"ringsym/internal/campaign"
	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/perceptive"
	"ringsym/internal/rcomm"
	"ringsym/internal/ring"
)

// Reduction identifies one arrow of Figures 1 and 2: the cost of solving the
// target problem given that the source problem is already solved.
type Reduction struct {
	From, To ringsym.Problem
	// Rounds is the measured cost of the reduction alone.
	Rounds int
	// Bound and BoundStr give the paper's bound for the arrow.
	Bound    float64
	BoundStr string
}

// MeasureReductions measures every arrow of the reduction graph (Figure 1 for
// odd n / lazy / perceptive, Figure 2 for the basic model with even n) on a
// single configuration of the given size.
func MeasureReductions(ctx context.Context, s *ringsym.Cell, n, idBound int, seed int64) ([]Reduction, error) {
	n = campaign.AdjustParity(n, s.OddN)
	logN := comb.Log2(float64(idBound))
	// Given direction agreement, leader election costs what Table II states.
	common := ringsym.CellOf(s.Model, s.OddN, true)
	daToLeader, daToLeaderStr := common.Bound(ringsym.LeaderElection, n, idBound)

	// A measure runs the reduction on frame f and hands k the rounds it
	// spent; nmDir and isLeader are the solved source problem.
	type measure func(f *core.Frame, nmDir ring.Direction, isLeader bool, k func(rounds int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)
	type probe struct {
		from, to ringsym.Problem
		bound    float64
		boundStr string
		measure  measure
	}
	// since hands k the rounds f spent since start; the continuation's
	// argument (the reduction's own result) is discarded.
	since := func(f *core.Frame, k func(int) (engine.Yield, engine.Cont)) func() (engine.Yield, engine.Cont) {
		start := f.RoundsUsed()
		return func() (engine.Yield, engine.Cont) { return k(f.RoundsUsed() - start) }
	}
	probes := []probe{
		{ringsym.NontrivialMove, ringsym.DirectionAgreement, 1, "O(1)", func(f *core.Frame, nmDir ring.Direction, _ bool, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			end := since(f, k)
			return core.DirectionAgreementStep(f, nmDir, func(ring.Direction) (engine.Yield, engine.Cont) { return end() })
		}},
		{ringsym.NontrivialMove, ringsym.LeaderElection, logN, "O(log N)", func(f *core.Frame, nmDir ring.Direction, _ bool, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			end := since(f, k)
			return core.DirectionAgreementStep(f, nmDir, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
				return core.LeaderElectWithNMStep(f, nmDir, func(bool) (engine.Yield, engine.Cont) { return end() })
			})
		}},
		{ringsym.LeaderElection, ringsym.NontrivialMove, 1, "O(1)", func(f *core.Frame, _ ring.Direction, isLeader bool, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			end := since(f, k)
			return core.NontrivialMoveFromLeaderStep(f, isLeader, func(ring.Direction) (engine.Yield, engine.Cont) { return end() })
		}},
		{ringsym.LeaderElection, ringsym.DirectionAgreement, 1, "O(1)", func(f *core.Frame, _ ring.Direction, isLeader bool, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			end := since(f, k)
			return core.NontrivialMoveFromLeaderStep(f, isLeader, func(dir ring.Direction) (engine.Yield, engine.Cont) {
				return core.DirectionAgreementStep(f, dir, func(ring.Direction) (engine.Yield, engine.Cont) { return end() })
			})
		}},
		{ringsym.DirectionAgreement, ringsym.LeaderElection, daToLeader, daToLeaderStr, func(f *core.Frame, _ ring.Direction, _ bool, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			end := since(f, k)
			return core.LeaderElectCommonSenseStep(f, func(bool) (engine.Yield, engine.Cont) { return end() })
		}},
		{ringsym.DirectionAgreement, ringsym.NontrivialMove, daToLeader + 1, daToLeaderStr + " + O(1)", func(f *core.Frame, _ ring.Direction, _ bool, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			end := since(f, k)
			return core.LeaderElectCommonSenseStep(f, func(isLeader bool) (engine.Yield, engine.Cont) {
				return core.NontrivialMoveFromLeaderStep(f, isLeader, func(ring.Direction) (engine.Yield, engine.Cont) { return end() })
			})
		}},
	}

	out := make([]Reduction, 0, len(probes))
	for _, p := range probes {
		// Preconditions (a solved nontrivial move / an elected leader /
		// a common sense of direction) are established on a fresh network
		// before the reduction is measured.
		nw, err := network(common, n, idBound, seed)
		if err != nil {
			return nil, err
		}
		maxID := 0
		for i := 0; i < nw.N(); i++ {
			if nw.IDOf(i) > maxID {
				maxID = nw.IDOf(i)
			}
		}
		res, err := engine.Run(ctx, nw, func(a *engine.Agent) *engine.Proto[int] {
			return engine.NewProto(func(done func(int, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				f := core.NewFrame(a)
				isLeader := a.ID() == maxID
				k := func(rounds int) (engine.Yield, engine.Cont) { return done(rounds, nil) }
				if p.from == ringsym.NontrivialMove {
					return core.NontrivialMoveFromLeaderStep(f, isLeader, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
						return p.measure(f, nmDir, isLeader, k)
					})
				}
				var nmDir ring.Direction
				return p.measure(f, nmDir, isLeader, k)
			})
		})
		if err != nil {
			return nil, fmt.Errorf("eval: reduction %s->%s: %w", p.from, p.to, err)
		}
		out = append(out, Reduction{From: p.from, To: p.to, Rounds: res.Outputs[0], Bound: p.bound, BoundStr: p.boundStr})
	}
	return out, nil
}

// FormatReductions renders the reduction measurements.
func FormatReductions(title string, rs []Reduction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "  %-22s -> %-22s %8s %10s  %s\n", "given", "solve", "rounds", "bound", "paper bound")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %-22s -> %-22s %8d %10.1f  %s\n", string(r.From), string(r.To), r.Rounds, r.Bound, r.BoundStr)
	}
	return b.String()
}

// RingDistSample is one point of the Figure 3 experiment: the cost of the
// ring-distance discovery stage (the machinery Figure 3 illustrates) as a
// function of n.
type RingDistSample struct {
	N       int
	IDBound int
	Rounds  int
	Bound   float64
}

// MeasureRingDist measures the number of rounds RingDist needs (after
// coordination) in the perceptive model for each size.
func MeasureRingDist(ctx context.Context, sizes []int, idBoundFactor int, seed int64) ([]RingDistSample, error) {
	if idBoundFactor <= 0 {
		idBoundFactor = 4
	}
	perceptiveEven := ringsym.CellOf(ring.Perceptive, false, false)
	var out []RingDistSample
	for _, rawN := range sizes {
		n := campaign.AdjustParity(rawN, false)
		idBound := idBoundFactor * n
		nw, err := network(perceptiveEven, n, idBound, seed)
		if err != nil {
			return nil, err
		}
		res, err := engine.Run(ctx, nw, func(a *engine.Agent) *engine.Proto[int] {
			return engine.NewProto(func(done func(int, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				return perceptive.CoordinateStep(a, seed, func(c *core.Coordination) (engine.Yield, engine.Cont) {
					start := c.Frame.RoundsUsed()
					return rcomm.EstablishStep(c.Frame, func(link *rcomm.Link) (engine.Yield, engine.Cont) {
						return perceptive.RingDistStep(link, c.IsLeader, func(int, bool) (engine.Yield, engine.Cont) {
							return done(c.Frame.RoundsUsed()-start, nil)
						})
					})
				})
			})
		})
		if err != nil {
			return nil, fmt.Errorf("eval: ringdist n=%d: %w", n, err)
		}
		bound, _ := perceptiveEven.Bound(ringsym.NontrivialMove, n, idBound)
		out = append(out, RingDistSample{N: n, IDBound: idBound, Rounds: res.Outputs[0], Bound: bound})
	}
	return out, nil
}

// FormatRingDist renders the Figure 3 samples.
func FormatRingDist(samples []RingDistSample) string {
	var b strings.Builder
	title := "Figure 3 - RingDist (ring-distance discovery) cost in the perceptive model"
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "  %8s %10s %12s %16s\n", "n", "N", "rounds", "O(sqrt(n)logN)")
	for _, s := range samples {
		fmt.Fprintf(&b, "  %8d %10d %12d %16.1f\n", s.N, s.IDBound, s.Rounds, s.Bound)
	}
	return b.String()
}

// DistinguisherSample is one point of the Section IV experiment: the minimal
// prefix of the pseudo-random schedule that forms an (N,n)-distinguisher,
// against the Ω(n·log(N/n)/log n) lower bound (Corollary 29).  Computing the
// minimum requires exhausting all disjoint pairs, so only small universes are
// feasible.
type DistinguisherSample struct {
	Universe   int
	SubsetSize int
	MinPrefix  int
	LowerBound float64
}

// MeasureDistinguishers computes the minimal distinguisher prefixes for a set
// of (N, n) pairs.
func MeasureDistinguishers(pairs [][2]int, seed int64) ([]DistinguisherSample, error) {
	var out []DistinguisherSample
	for _, p := range pairs {
		universe, subset := p[0], p[1]
		d, err := comb.NewRandomDistinguisher(universe, 64*subset+64, seed)
		if err != nil {
			return nil, err
		}
		min := comb.MinimalDistinguisherPrefix(d, subset)
		out = append(out, DistinguisherSample{
			Universe:   universe,
			SubsetSize: subset,
			MinPrefix:  min,
			LowerBound: comb.DistinguisherLowerBound(universe, subset),
		})
	}
	return out, nil
}

// FormatDistinguishers renders the distinguisher-size samples.
func FormatDistinguishers(samples []DistinguisherSample) string {
	var b strings.Builder
	title := "Section IV - minimal (N,n)-distinguisher prefixes vs the Corollary 29 lower bound"
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "  %8s %8s %12s %22s\n", "N", "n", "min prefix", "n log(N/n)/log n")
	for _, s := range samples {
		fmt.Fprintf(&b, "  %8d %8d %12d %22.1f\n", s.Universe, s.SubsetSize, s.MinPrefix, s.LowerBound)
	}
	return b.String()
}
