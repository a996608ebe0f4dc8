package perceptive

import (
	"fmt"

	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/rcomm"
)

// DiscoveryResult is the outcome of the full perceptive location-discovery
// pipeline for one agent.
type DiscoveryResult struct {
	// IsLeader reports whether this agent was elected leader.
	IsLeader bool
	// Label is the agent's clockwise ring distance from the leader plus one
	// (the leader has label 1).
	Label int
	// N is the discovered number of agents.
	N int
	// Gaps is the leader-relative gap vector: Gaps[j] is the arc (half-ticks)
	// from the agent with label j+1 to the agent with label j+2.  Like
	// Positions it is a buffer of the agent's kept state.
	Gaps []int64
	// Positions[t] is the arc, measured in the agreed clockwise direction,
	// from this agent's initial position to the initial position of the agent
	// at ring distance t clockwise from it (Positions[0] = 0).
	Positions []int64
	// Round accounting per stage.
	RoundsCoordination int
	RoundsRingDist     int
	RoundsDistances    int
}

// LocationDiscoveryStep implements Theorem 42: location discovery in the
// perceptive model in n/2 + O(√n·log²N) rounds for even n (the paper's
// setting; odd n is handled by the lazy-model style sweep in
// internal/discovery), as a CPS step: seed drives NMoveS, and k receives the
// agent's result, which is the agent's kept state and valid until the run
// ends.  The pipeline is: NMoveS → direction agreement → leader
// election → neighbour re-discovery in the agreed frame → RingDist → size
// broadcast → Distances → per-agent solution of the arc equations.
func LocationDiscoveryStep(a *engine.Agent, seed int64, k func(*DiscoveryResult) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	s := discoveryStates.Of(a)
	if s.onCoordFn == nil {
		s.onCoordFn, s.onLinkFn, s.onLabelFn, s.onSizeFn, s.onGapsFn = s.onCoord, s.onLink, s.onLabel, s.onSize, s.onGaps
	}
	s.k = k
	return CoordinateStep(a, seed, s.onCoordFn)
}

// locationDiscovery is the state of one LocationDiscoveryStep call, kept per
// agent (discoveryStates): one continuation per stage, bound once.
type locationDiscovery struct {
	k             func(*DiscoveryResult) (engine.Yield, engine.Cont)
	coord         *core.Coordination
	f             *core.Frame
	afterCoord    int // RoundsUsed at the stage boundaries
	afterRingDist int
	label, n      int

	onCoordFn func(*core.Coordination) (engine.Yield, engine.Cont)
	onLinkFn  func(*rcomm.Link) (engine.Yield, engine.Cont)
	onLabelFn func(label int, isLast bool) (engine.Yield, engine.Cont)
	onSizeFn  func(n int) (engine.Yield, engine.Cont)
	onGapsFn  func(gaps []int64, offset int) (engine.Yield, engine.Cont)

	prefix, positions []int64         // relativePositions' buffers
	res               DiscoveryResult // the result handed to k
}

func (s *locationDiscovery) onCoord(coord *core.Coordination) (engine.Yield, engine.Cont) {
	s.coord, s.f = coord, coord.Frame
	s.afterCoord = s.f.RoundsUsed()
	// The link must be rebuilt because direction agreement may have flipped
	// the frame after NMoveS's neighbour discovery.
	return rcomm.EstablishStep(s.f, s.onLinkFn)
}

func (s *locationDiscovery) onLink(link *rcomm.Link) (engine.Yield, engine.Cont) {
	return RingDistStep(link, s.coord.IsLeader, s.onLabelFn)
}

func (s *locationDiscovery) onLabel(label int, isLast bool) (engine.Yield, engine.Cont) {
	s.label = label
	return BroadcastSizeStep(s.f, isLast, label, s.onSizeFn)
}

func (s *locationDiscovery) onSize(n int) (engine.Yield, engine.Cont) {
	if n < 5 || s.label < 1 || s.label > n {
		return engine.Abort(fmt.Errorf("%w: ring distance stage produced label %d, n %d", ErrProtocol, s.label, n))
	}
	s.n = n
	s.afterRingDist = s.f.RoundsUsed()
	return DistancesStep(s.f, s.label, n, s.onGapsFn)
}

func (s *locationDiscovery) onGaps(gaps []int64, offset int) (engine.Yield, engine.Cont) {
	positions, err := s.relativePositions(gaps, offset)
	if err != nil {
		return engine.Abort(err)
	}
	s.res = DiscoveryResult{
		IsLeader:           s.coord.IsLeader,
		Label:              s.label,
		N:                  s.n,
		Gaps:               gaps,
		Positions:          positions,
		RoundsCoordination: s.afterCoord,
		RoundsRingDist:     s.afterRingDist - s.afterCoord,
		RoundsDistances:    s.f.RoundsUsed() - s.afterRingDist,
	}
	return s.k(&s.res)
}

// relativePositions converts the leader-relative gap vector into positions
// relative to this agent's own initial position.  The agent knows the arc
// from its initial to its current position (the running sum of its dist()
// observations), its current leader-relative slot (label − 1 + offset), and
// the full slot geometry, so it can identify the slot it started from and
// read off everybody's initial position.  The positions are the state's
// buffer, like the result they go into.
func (s *locationDiscovery) relativePositions(gaps []int64, offset int) ([]int64, error) {
	f, label, n := s.f, s.label, s.n
	full := f.FullCircle()
	if cap(s.prefix) < n {
		s.prefix, s.positions = make([]int64, n), make([]int64, n)
	}
	prefix, positions := s.prefix[:n], s.positions[:n]
	prefix[0] = 0
	for j := 1; j < n; j++ {
		prefix[j] = prefix[j-1] + gaps[j-1]
	}
	cur := ((label-1+offset)%n + n) % n
	initialCoord := ((prefix[cur]-f.Displacement())%full + full) % full
	initIdx := -1
	for j := 0; j < n; j++ {
		if prefix[j] == initialCoord {
			initIdx = j
			break
		}
	}
	if initIdx < 0 {
		return nil, fmt.Errorf("%w: initial position does not coincide with a discovered slot", ErrProtocol)
	}
	for t := 0; t < n; t++ {
		positions[t] = ((prefix[(initIdx+t)%n]-prefix[initIdx])%full + full) % full
	}
	return positions, nil
}
