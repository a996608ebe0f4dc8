package perceptive

import (
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/rcomm"
	"ringsym/internal/ring"
)

// ringDistResult carries RingDist's result through the blocking wrapper.
type ringDistResult struct {
	label  int
	isLast bool
}

// RingDist implements Algorithm 5: every agent learns its label, i.e. its
// clockwise ring distance from the elected leader plus one (the leader has
// label 1, its clockwise neighbour label 2, ..., its anticlockwise neighbour
// label n).
//
// Preconditions: the perceptive model, an elected unique leader, a common
// sense of direction (the frame underlying the link is the agreed one) and a
// configuration-preserving link (as produced by rcomm.Establish after
// direction agreement).  The algorithm preserves the configuration.
//
// In iteration i (k = 2^i) the agents with labels k(j+1) for j = 1..k learn
// their labels from the arithmetic identity of Proposition 37/Corollary 38:
// the distance 2z to their first collision in Shift(k) equals the sum of the
// displacements y_1..y_j observed in j executions of Shift(−k/2) exactly when
// their label is k + jk.  Newly labelled agents then announce their label
// within ring distance k, which labels everybody up to a_{k²+2k}.  The loop
// ends when the leader's anticlockwise neighbour (which knows it is the last
// agent from the initial announcement) reports, through a rotation-signalling
// round, that it has learned its label.
//
// The returned values are the agent's label and whether it is the last agent
// (label n).  Cost: O(√n·log N) rounds.
func RingDist(link *rcomm.Link, isLeader bool) (label int, isLast bool, err error) {
	r, err := engine.RunStep(link.Frame().Agent(), func(k func(ringDistResult) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return RingDistStep(link, isLeader, func(label int, isLast bool) (engine.Yield, engine.Cont) {
			return k(ringDistResult{label: label, isLast: isLast})
		})
	})
	return r.label, r.isLast, err
}

// RingDistStep is the machine form of RingDist.
func RingDistStep(link *rcomm.Link, isLeader bool, k func(label int, isLast bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	f := link.Frame()
	if !f.Agent().Model().RevealsCollision() {
		return engine.Abort(ErrNeedPerceptive)
	}
	s := &ringDist{link: link, f: f, k: k, isLeader: isLeader}
	if isLeader {
		s.label = 1
	}
	s.onTraceFn, s.onSumFn, s.onObsFn, s.onSidesFn = s.onTrace, s.onSum, s.onObs, s.onSides
	// The leader announces itself over ring distance 4 so that agents a_2..a_5
	// know their labels before the first iteration, and a_n learns that it is
	// the leader's anticlockwise neighbour.
	s.stage = rdAnnounce
	return link.DisseminateSparseStep(isLeader, 1, 1, 4, s.onSidesFn)
}

// ringDist is the state of one RingDistStep call.  The iterations advance it
// in place; stage tells the shared continuations which step of the
// iteration has just completed.
type ringDist struct {
	link     *rcomm.Link
	f        *core.Frame
	k        func(label int, isLast bool) (engine.Yield, engine.Cont)
	isLeader bool
	label    int  // 0 while unknown
	isLast   bool // this agent is a_n, the leader's anticlockwise neighbour
	stage    ringDistStage
	kk       int                // the iteration's k = 2^i
	ys       []int64            // phase A: the anticlockwise displacements y_1..y_k
	obsZ     engine.Observation // phase B: the Shift(k) observation

	onTraceFn func([]engine.Observation) (engine.Yield, engine.Cont)
	onSumFn   func(int64) (engine.Yield, engine.Cont)
	onObsFn   func(engine.Observation) (engine.Yield, engine.Cont)
	onSidesFn func(left, right rcomm.SideInfo) (engine.Yield, engine.Cont)
}

// ringDistStage is the step of RingDist a continuation resumes.
type ringDistStage uint8

const (
	rdAnnounce ringDistStage = iota // the leader's initial announcement
	rdShift                         // phase B: Shift(k)
	rdUnshift                       // phase B: Shift(-k)
	rdLabels                        // phase C: the newly labelled agents' announcement
	rdProbe                         // the completeness check
)

// shiftDir is the agent's direction in one round of Shift(l) (for l > 0) or
// Shift(-|l|) (for l < 0): agents with a known label at most |l| move
// clockwise (resp. anticlockwise), everybody else the other way.
func (s *ringDist) shiftDir(l int) ring.Direction {
	limit := l
	inside := ring.Clockwise
	if l < 0 {
		limit = -l
		inside = ring.Anticlockwise
	}
	if s.label != 0 && s.label <= limit {
		return inside
	}
	return inside.Opposite()
}

// iter starts the iteration for k = kk.
func (s *ringDist) iter(kk int) (engine.Yield, engine.Cont) {
	if kk > 4*s.f.IDBound() {
		return engine.Abort(fmt.Errorf("%w: RingDist exceeded the identifier bound", ErrExhausted))
	}
	s.kk = kk
	// Phase A: k executions of Shift(-k/2); record the anticlockwise
	// displacement of each.  The agent's direction is constant for the
	// whole phase (labels only change in phase C), so the k rounds are one
	// leap batch — and so is the undo phase, whose observations are
	// discarded and therefore only need the aggregate form.
	return s.f.RoundNStep(s.shiftDir(-(kk / 2)), kk, s.onTraceFn)
}

func (s *ringDist) onTrace(trace []engine.Observation) (engine.Yield, engine.Cont) {
	s.ys = s.ys[:0]
	for _, obs := range trace {
		y := int64(0)
		if obs.Dist != 0 {
			y = s.f.FullCircle() - obs.Dist
		}
		s.ys = append(s.ys, y)
	}
	return s.f.RoundNSumStep(s.shiftDir(s.kk/2), s.kk, s.onSumFn)
}

// onSum ends phase A's undo.  Phase B: Shift(k) yields the first-collision
// distance z; Shift(-k) undoes it.
func (s *ringDist) onSum(int64) (engine.Yield, engine.Cont) {
	s.stage = rdShift
	return s.f.RoundStep(s.shiftDir(s.kk), s.onObsFn)
}

func (s *ringDist) onObs(obs engine.Observation) (engine.Yield, engine.Cont) {
	switch s.stage {
	case rdShift:
		s.obsZ = obs
		s.stage = rdUnshift
		return s.f.RoundStep(s.shiftDir(-s.kk), s.onObsFn)
	case rdUnshift:
		return s.mark()
	}
	// rdProbe: the rotation index is nonzero exactly when a_n is labelled.
	if obs.Dist != 0 {
		return s.k(s.label, s.isLast)
	}
	return s.iter(s.kk * 2)
}

// mark applies Corollary 38 and starts phase C.
func (s *ringDist) mark() (engine.Yield, engine.Cont) {
	kk := s.kk
	// An unlabelled agent has label k + jk exactly when twice its
	// first-collision distance equals y_1 + ... + y_j.  Agents that already
	// know such a label (from an earlier iteration) mark themselves again,
	// exactly as in the paper, so that the contiguous coverage of announced
	// labels keeps extending by k² per iteration.
	marked := false
	switch {
	case s.label > kk && s.label%kk == 0 && s.label <= kk*kk+kk:
		marked = true
	case s.label == 0 && s.obsZ.Collided:
		var sum int64
		for j := 0; j < kk; j++ {
			sum += s.ys[j]
			if 2*s.obsZ.Coll == sum {
				s.label = kk + (j+1)*kk
				marked = true
				break
			}
		}
	}
	// Phase C: newly labelled agents announce their label over distance k.
	labelBits := comb.Bits(kk*kk + kk)
	payload := uint64(0)
	if marked {
		payload = uint64(s.label)
	}
	s.stage = rdLabels
	return s.link.DisseminateSparseStep(marked, payload, labelBits, kk, s.onSidesFn)
}

func (s *ringDist) onSides(left, right rcomm.SideInfo) (engine.Yield, engine.Cont) {
	if s.stage == rdAnnounce {
		if right.Found && right.Hops == 1 && !s.isLeader {
			s.isLast = true
		}
		if s.label == 0 && left.Found {
			s.label = 1 + left.Hops
		}
		return s.iter(2)
	}
	// rdLabels.
	if s.label == 0 {
		switch {
		case left.Found:
			// The source sits on our anticlockwise side: we are left.Hops
			// positions clockwise of it.
			s.label = int(left.Payload) + left.Hops
		case right.Found:
			s.label = int(right.Payload) - right.Hops
		}
	}
	// Completeness check: a_n moves clockwise iff it knows its label,
	// everybody else anticlockwise; the rotation index is nonzero exactly
	// when a_n is labelled, which (by the contiguous coverage of labels)
	// means everybody is.  The probe is paired with a reversed round so the
	// configuration is preserved.
	probeDir := ring.Anticlockwise
	if s.isLast && s.label != 0 {
		probeDir = ring.Clockwise
	}
	s.stage = rdProbe
	return s.f.RoundPairStep(probeDir, s.onObsFn)
}

// BroadcastSize makes the last agent (label n, the leader's anticlockwise
// neighbour) announce the network size n to every agent over the
// rotation-signalling channel, one bit per paired round, so the configuration
// is preserved.  Every agent returns n.  Cost: 2·⌈log2 N⌉ rounds.
func BroadcastSize(f *core.Frame, isLast bool, ownLabel int) (int, error) {
	return engine.RunStep(f.Agent(), func(k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return BroadcastSizeStep(f, isLast, ownLabel, k)
	})
}

// BroadcastSizeStep is the machine form of BroadcastSize.
func BroadcastSizeStep(f *core.Frame, isLast bool, ownLabel int, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	bits := comb.Bits(f.IDBound())
	value := uint64(0)
	if isLast {
		value = uint64(ownLabel)
	}
	// The full schedule — one information round plus one reversed round per
	// bit — depends only on the broadcaster's own value, so the whole
	// broadcast is one leap batch.
	dirs := make([]ring.Direction, 0, 2*bits)
	for i := 0; i < bits; i++ {
		dir := ring.Anticlockwise
		if isLast && (value>>i)&1 == 1 {
			dir = ring.Clockwise
		}
		dirs = append(dirs, dir, dir.Opposite())
	}
	return f.RoundScheduleStep(dirs, func(trace []engine.Observation) (engine.Yield, engine.Cont) {
		var received uint64
		for i := 0; i < bits; i++ {
			if trace[2*i].Dist != 0 {
				received |= 1 << i
			}
		}
		if isLast {
			return k(ownLabel)
		}
		return k(int(received))
	})
}
