package rcomm

import (
	"fmt"

	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Link is the per-agent handle of the neighbour communication layer.  It is
// created from the outcome of neighbour discovery and must be used while the
// ring is in the same configuration (every primitive of this package restores
// the configuration, so arbitrary Link operations can be chained).  The frame
// must not be flipped while a Link built from it is still in use.
type Link struct {
	frame *core.Frame
	nb    Neighbors

	// schedBuf is the schedule scratch reused by the batched exchange
	// primitives.
	schedBuf []ring.Direction

	// The continuation slots of ExchangeWordStep and ExchangeStep, with the
	// arguments their decoding needs.  Like the frame's (see core.Frame),
	// they rely on the machine having one yield in flight; each resume
	// method empties its slot before calling the continuation and is bound
	// once per link.
	word      uint64
	wordBits  int
	kWord     func(left, right uint64) (engine.Yield, engine.Cont)
	onTraceFn func([]engine.Observation) (engine.Yield, engine.Cont)
	exBits    int
	kExchange func(fromLeft, fromRight uint64) (engine.Yield, engine.Cont)
	onWordsFn func(left, right uint64) (engine.Yield, engine.Cont)

	// The state of the link's own neighbour discovery (EstablishStep) and of
	// its multi-step primitives, at most one call of each at a time, with
	// the callbacks bound into them.
	nd            neighborDiscovery
	kLink         func(*Link) (engine.Yield, engine.Cont)
	onNeighborsFn func(Neighbors) (engine.Yield, engine.Cont)
	agg           aggregateMax
	sparse        sparseRelay
}

// links keeps every agent's established link.
var links = engine.NewSlot[Link]()

// EstablishStep runs neighbour discovery and hands k a ready-to-use Link
// (Corollary 32's O(log N) preprocessing).  The link is the agent's kept
// state (engine.Slot), allocated on its first run only: establishing a link
// replaces the agent's previous one, so a link is valid until its agent
// establishes the next.
func EstablishStep(f *core.Frame, k func(*Link) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	l := links.Of(f.Agent())
	if l.onNeighborsFn == nil {
		l.onNeighborsFn = l.onNeighbors
	}
	l.frame, l.kLink = f, k
	return l.nd.start(f, l.onNeighborsFn)
}

// onNeighbors completes EstablishStep.
func (l *Link) onNeighbors(nb Neighbors) (engine.Yield, engine.Cont) {
	l.nb = nb
	k := l.kLink
	l.kLink = nil
	return k(l)
}

// Frame returns the frame the link operates on.
func (l *Link) Frame() *core.Frame { return l.frame }

// Neighbors returns the neighbour information the link was built from.
func (l *Link) Neighbors() Neighbors { return l.nb }

// ExchangeBitStep implements Proposition 31: the agent transmits one bit to
// both neighbours and k receives the bit transmitted by each of them.  Cost:
// 4 rounds (two information rounds, each followed by a reversed round),
// submitted as one leap batch.
func (l *Link) ExchangeBitStep(bit int, k func(left, right int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if bit != 0 && bit != 1 {
		return engine.Abort(fmt.Errorf("rcomm: bit must be 0 or 1, got %d", bit))
	}
	return l.ExchangeWordStep(uint64(bit), 1, func(left, right uint64) (engine.Yield, engine.Cont) {
		return k(int(left), int(right))
	})
}

// appendBitSchedule appends the 4-round schedule of one bit exchange: the
// information round (frame-clockwise iff the bit is 1) with its reversed
// round, then the opposite information round with its reversed round.
func appendBitSchedule(sched []ring.Direction, bit uint64) []ring.Direction {
	dir1 := ring.Anticlockwise
	if bit == 1 {
		dir1 = ring.Clockwise
	}
	return append(sched, dir1, dir1.Opposite(), dir1.Opposite(), dir1)
}

// decodeBitExchange recovers the neighbours' bits from the two information
// rounds of one bit exchange (the observations at schedule offsets 0 and 2).
func (l *Link) decodeBitExchange(bit uint64, obs1, obs2 engine.Observation) (left, right int) {
	// In the round where we moved clockwise we probed the right neighbour; in
	// the other round the left neighbour.
	cwRound, cwObs := 1, obs1
	ccwObs := obs2
	if bit == 0 {
		cwRound, cwObs = 2, obs2
		ccwObs = obs1
	}
	ccwRound := 3 - cwRound

	// The right neighbour sits on our frame-clockwise side, so its own
	// frame-clockwise direction points at us exactly when its sense of
	// direction is opposite to ours; symmetrically for the left neighbour.
	right = decodeNeighbourBit(cwRound, tight(cwObs, l.nb.RightGap), !l.nb.RightSameSense)
	left = decodeNeighbourBit(ccwRound, tight(ccwObs, l.nb.LeftGap), l.nb.LeftSameSense)
	return left, right
}

// tight reports whether the observation's first collision happened exactly at
// half the gap to the probed neighbour, i.e. that neighbour moved towards us.
func tight(obs engine.Observation, gap int64) bool {
	return obs.Collided && 2*obs.Coll == gap
}

// decodeNeighbourBit recovers the neighbour's transmitted bit.
//
// Every agent moves frame-clockwise in round 1 iff its bit is 1 (and the
// opposite in round 2).  "towards" reports whether the neighbour moved
// towards us in the given round; movedCWTowardsUs reports whether the
// neighbour's frame-clockwise direction points at us (true when we probed our
// right neighbour and it has the opposite sense, or we probed our left
// neighbour and it has the same sense).
func decodeNeighbourBit(round int, towards, movedCWTowardsUs bool) int {
	// The neighbour chose its frame-clockwise direction in this round iff
	// (round == 1) == (its bit == 1).
	choseCW := towards == movedCWTowardsUs
	bitIsOne := choseCW == (round == 1)
	if bitIsOne {
		return 1
	}
	return 0
}

// ExchangeWordStep transmits a word of the given width (LSB first) to both
// neighbours and hands k the words received from the left and right
// neighbours.  Cost: 4·bits rounds.
//
// The whole schedule depends only on the agent's own word, so all 4·bits
// rounds are submitted as one leap batch — one crossing per word
// exchange instead of one per round — and the bits are decoded from the
// returned trace.  The round sequence is identical to bit-by-bit exchange,
// so the configuration-restoring property is preserved.
func (l *Link) ExchangeWordStep(word uint64, bits int, k func(left, right uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if bits <= 0 || bits > 63 {
		return engine.Abort(fmt.Errorf("%w: %d bits", ErrBadBits, bits))
	}
	if l.schedBuf == nil {
		// Sized for the widest word, so it never grows.
		l.schedBuf = make([]ring.Direction, 0, 4*63)
	}
	sched := l.schedBuf[:0]
	for i := 0; i < bits; i++ {
		sched = appendBitSchedule(sched, (word>>i)&1)
	}
	l.schedBuf = sched
	l.word, l.wordBits, l.kWord = word, bits, k
	if l.onTraceFn == nil {
		l.onTraceFn = l.onWordTrace
	}
	return l.frame.RoundScheduleStep(sched, l.onTraceFn)
}

// onWordTrace decodes the neighbours' words from a word exchange's trace.
func (l *Link) onWordTrace(trace []engine.Observation) (engine.Yield, engine.Cont) {
	var left, right uint64
	for i := 0; i < l.wordBits; i++ {
		lb, rb := l.decodeBitExchange((l.word>>i)&1, trace[4*i], trace[4*i+2])
		left |= uint64(lb) << i
		right |= uint64(rb) << i
	}
	k := l.kWord
	l.kWord = nil
	return k(left, right)
}

// ExchangeStep transmits possibly different words to the left and right
// neighbours (each of the given width) and hands k the words each neighbour
// addressed to this agent.  Cost: 8·bits rounds.
func (l *Link) ExchangeStep(toLeft, toRight uint64, bits int, k func(fromLeft, fromRight uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if bits <= 0 || 2*bits > 62 {
		return engine.Abort(fmt.Errorf("%w: %d bits per side", ErrBadBits, bits))
	}
	mask := uint64(1)<<bits - 1
	packed := (toRight & mask) | (toLeft&mask)<<bits
	l.exBits, l.kExchange = bits, k
	if l.onWordsFn == nil {
		l.onWordsFn = l.onExchangeWords
	}
	return l.ExchangeWordStep(packed, 2*bits, l.onWordsFn)
}

// onExchangeWords unpacks the halves of the neighbours' packed words that
// were addressed to this agent.
func (l *Link) onExchangeWords(leftWord, rightWord uint64) (engine.Yield, engine.Cont) {
	bits := l.exBits
	mask := uint64(1)<<bits - 1
	var fromLeft, fromRight uint64
	// Our left neighbour packed [its toRight | its toLeft<<bits].  We are
	// its right neighbour exactly when it has the same sense of direction.
	if l.nb.LeftSameSense {
		fromLeft = leftWord & mask
	} else {
		fromLeft = (leftWord >> bits) & mask
	}
	// Our right neighbour: we are its left neighbour when senses agree.
	if l.nb.RightSameSense {
		fromRight = (rightWord >> bits) & mask
	} else {
		fromRight = rightWord & mask
	}
	k := l.kExchange
	l.kExchange = nil
	return k(fromLeft, fromRight)
}
