package rcomm

import (
	"fmt"

	"ringsym/internal/engine"
)

// SideInfo describes what an agent learned about the nearest source on one
// side of the ring during a dissemination.
type SideInfo struct {
	// Found reports whether any source within the dissemination distance
	// exists on this side.
	Found bool
	// Payload is the nearest source's payload.
	Payload uint64
	// Hops is the ring distance to that source (1..distance).
	Hops int
}

// DisseminateStep implements the information dissemination task of
// Corollary 33/34: every source agent floods its payload up to the given ring
// distance in both directions, hop by hop.  Each agent learns, for each of
// its two sides, the payload and ring distance of the nearest source on that
// side (its own payload is not included).  Sides are relative to the agent's
// frame: "left" is the frame-anticlockwise side.
//
// Cost: distance relay steps of 8·(1+payloadBits+hopBits) rounds each, i.e.
// O(distance · payloadBits) rounds.  The configuration is restored
// afterwards.
func (l *Link) DisseminateStep(isSource bool, payload uint64, payloadBits, distance int, k func(left, right SideInfo) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if distance < 1 {
		return engine.Abort(fmt.Errorf("rcomm: dissemination distance must be positive, got %d", distance))
	}
	if payloadBits < 1 {
		return engine.Abort(fmt.Errorf("rcomm: payloadBits must be positive, got %d", payloadBits))
	}
	hopBits := bitsFor(distance)
	msgBits := 1 + payloadBits + hopBits
	if 2*msgBits > 62 {
		return engine.Abort(fmt.Errorf("%w: message of %d bits", ErrBadBits, msgBits))
	}
	enc := func(present bool, payload uint64, hops int) uint64 {
		if !present {
			return 0
		}
		return 1 | payload<<1 | uint64(hops)<<(1+payloadBits)
	}
	dec := func(w uint64) (bool, uint64, int) {
		if w&1 == 0 {
			return false, 0, 0
		}
		payload := (w >> 1) & (uint64(1)<<payloadBits - 1)
		hops := int((w >> (1 + payloadBits)) & (uint64(1)<<hopBits - 1))
		return true, payload, hops
	}

	var left, right SideInfo
	// outRight travels towards our right neighbour (and onwards in that
	// objective direction); outLeft symmetric.
	var step func(i int, outLeft, outRight uint64) (engine.Yield, engine.Cont)
	step = func(i int, outLeft, outRight uint64) (engine.Yield, engine.Cont) {
		if i == distance {
			return k(left, right)
		}
		return l.ExchangeStep(outLeft, outRight, msgBits, func(fromLeft, fromRight uint64) (engine.Yield, engine.Cont) {
			// A message arriving from the left neighbour originated on our left
			// side; the first one to arrive is from the nearest source.
			if present, pl, hops := dec(fromLeft); present && !left.Found {
				left = SideInfo{Found: true, Payload: pl, Hops: hops}
			}
			if present, pl, hops := dec(fromRight); present && !right.Found {
				right = SideInfo{Found: true, Payload: pl, Hops: hops}
			}
			// Relay: what came from the left continues to the right with one
			// more hop on its counter, and vice versa.  Messages that already
			// reached the target distance die out because the loop ends.
			return step(i+1, relay(fromRight, dec, enc), relay(fromLeft, dec, enc))
		})
	}
	first := enc(isSource, payload, 1)
	return step(0, first, first)
}

// relay re-encodes a received message with an incremented hop counter.
func relay(w uint64, dec func(uint64) (bool, uint64, int), enc func(bool, uint64, int) uint64) uint64 {
	present, payload, hops := dec(w)
	if !present {
		return 0
	}
	return enc(true, payload, hops+1)
}

// AggregateMaxStep floods source values up to the given ring distance and
// hands k the maximum value among all sources within that distance of this
// agent (including the agent itself when it is a source).  found reports
// whether any such source exists.
//
// Cost: distance relay steps of 8·(1+valueBits) rounds each.
func (l *Link) AggregateMaxStep(isSource bool, value uint64, valueBits, distance int, k func(max uint64, found bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if distance < 1 {
		return engine.Abort(fmt.Errorf("rcomm: aggregation distance must be positive, got %d", distance))
	}
	if valueBits < 1 {
		return engine.Abort(fmt.Errorf("rcomm: valueBits must be positive, got %d", valueBits))
	}
	msgBits := 1 + valueBits
	if 2*msgBits > 62 {
		return engine.Abort(fmt.Errorf("%w: message of %d bits", ErrBadBits, msgBits))
	}
	s := &l.agg
	onWordsFn := s.onWordsFn
	if onWordsFn == nil {
		onWordsFn = s.onWords
	}
	*s = aggregateMax{l: l, k: k, msgBits: msgBits, distance: distance, onWordsFn: onWordsFn}
	if isSource {
		s.max, s.found = value, true
	}
	s.bestFromLeft = encMax(isSource, value)
	s.bestFromRight = s.bestFromLeft
	return s.step(0)
}

// aggregateMax is the state of one AggregateMaxStep call, kept in its link.
type aggregateMax struct {
	l                 *Link
	k                 func(max uint64, found bool) (engine.Yield, engine.Cont)
	msgBits, distance int
	i                 int // the relay step in flight
	max               uint64
	found             bool
	// bestFromLeft carries the running maximum over sources within i hops
	// on our left side; it is what we forward to the right.  bestFromRight
	// is symmetric.
	bestFromLeft, bestFromRight uint64
	onWordsFn                   func(fromLeft, fromRight uint64) (engine.Yield, engine.Cont)
}

// encMax encodes an AggregateMaxStep message: a presence bit, then the value.
func encMax(present bool, v uint64) uint64 {
	if !present {
		return 0
	}
	return 1 | v<<1
}

// decMax decodes an encMax message.
func decMax(w uint64) (bool, uint64) {
	if w&1 == 0 {
		return false, 0
	}
	return true, w >> 1
}

// step runs relay step i, or reports after the last one.
func (s *aggregateMax) step(i int) (engine.Yield, engine.Cont) {
	if i == s.distance {
		return s.k(s.max, s.found)
	}
	s.i = i
	return s.l.ExchangeStep(s.bestFromRight, s.bestFromLeft, s.msgBits, s.onWordsFn)
}

func (s *aggregateMax) onWords(fromLeft, fromRight uint64) (engine.Yield, engine.Cont) {
	if present, v := decMax(fromLeft); present {
		s.see(v)
		if p, cur := decMax(s.bestFromLeft); !p || v > cur {
			s.bestFromLeft = encMax(true, v)
		}
	}
	if present, v := decMax(fromRight); present {
		s.see(v)
		if p, cur := decMax(s.bestFromRight); !p || v > cur {
			s.bestFromRight = encMax(true, v)
		}
	}
	return s.step(s.i + 1)
}

// see folds a received value into the running maximum.
func (s *aggregateMax) see(v uint64) {
	if !s.found || v > s.max {
		s.max, s.found = v, true
	}
}

// bitsFor returns the number of bits needed to represent values in [0..v].
func bitsFor(v int) int {
	b := 0
	for x := v; x > 0; x >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
