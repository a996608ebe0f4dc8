package rcomm

import (
	"fmt"

	"ringsym/internal/engine"
)

// DisseminateSparseStep implements the sparse information dissemination task
// of Corollary 34: when the source agents are at ring distance at least
// `distance` from one another, a p-bit message travels `distance` hops in
// O(p + distance) exchange steps instead of the O(p·distance) of the generic
// DisseminateStep, because the message is pipelined bit by bit: every relay
// step each agent forwards, in each direction, the bit it received from the
// opposite direction in the previous step, delayed by exactly one hop.
//
// The stream format is a single presence bit (1) followed by the payload bits
// (LSB first); an idle channel carries zeros, which is the "nothing to
// transmit yet" encoding the paper sketches.  A receiver learns the hop
// distance to the nearest source on each side from the step at which the
// presence bit arrives.  Sources do not forward foreign streams (they are far
// enough apart that nobody within `distance` of the blocked source sits
// behind the blocking one).
//
// Cost: (1 + payloadBits + distance) relay steps of 8 rounds each.
func (l *Link) DisseminateSparseStep(isSource bool, payload uint64, payloadBits, distance int, k func(left, right SideInfo) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if distance < 1 {
		return engine.Abort(fmt.Errorf("rcomm: dissemination distance must be positive, got %d", distance))
	}
	if payloadBits < 1 || payloadBits > 60 {
		return engine.Abort(fmt.Errorf("%w: %d payload bits", ErrBadBits, payloadBits))
	}
	s := &l.sparse
	onBitsFn := s.onBitsFn
	if onBitsFn == nil {
		onBitsFn = s.onBits
	}
	*s = sparseRelay{l: l, k: k, isSource: isSource, payload: payload, payloadBits: payloadBits, distance: distance, onBitsFn: onBitsFn}
	return s.relayStep(1)
}

// sparseRelay is the state of one DisseminateSparseStep call, kept in its
// link.  Each
// direction's outgoing queue is implicit: a source sends its stream — a
// presence bit (1), then the payload bits, LSB first, then silence — and
// relays nothing, while a non-source starts silent and echoes, one step
// later, what it heard from the opposite side.
type sparseRelay struct {
	l                     *Link
	k                     func(left, right SideInfo) (engine.Yield, engine.Cont)
	isSource              bool
	payload               uint64
	payloadBits, distance int
	step                  int    // the relay step in flight (1-based)
	echoL, echoR          uint64 // non-source: the bits to send left/right next step
	fromLeft, fromRight   sparseRecv
	onBitsFn              func(gotL, gotR uint64) (engine.Yield, engine.Cont)
}

// sparseRecv is the receiver state for one side.
type sparseRecv struct {
	started bool
	startAt int    // the step at which the presence bit arrived
	v       uint64 // payload bits received so far
	nbits   int
	info    SideInfo
}

// relayStep runs relay step `step`, or reports after the last one.
func (s *sparseRelay) relayStep(step int) (engine.Yield, engine.Cont) {
	if step > 1+s.payloadBits+s.distance {
		return s.k(s.clip(s.fromLeft), s.clip(s.fromRight))
	}
	s.step = step
	outL, outR := s.echoL, s.echoR
	if s.isSource {
		outL = s.streamBit(step)
		outR = outL
	}
	return s.l.ExchangeStep(outL, outR, 1, s.onBitsFn)
}

// streamBit is the bit a source sends in relay step `step`.
func (s *sparseRelay) streamBit(step int) uint64 {
	switch i := step - 2; {
	case i < 0:
		return 1 // presence bit
	case i < s.payloadBits:
		return (s.payload >> i) & 1
	}
	return 0
}

func (s *sparseRelay) onBits(gotL, gotR uint64) (engine.Yield, engine.Cont) {
	s.record(&s.fromLeft, gotL&1)
	s.record(&s.fromRight, gotR&1)
	// Relay with a one-step delay: what arrived from the left goes out to
	// the right next step, and vice versa.
	s.echoR, s.echoL = gotL&1, gotR&1
	return s.relayStep(s.step + 1)
}

// record folds one received bit into r.
func (s *sparseRelay) record(r *sparseRecv, bit uint64) {
	if r.info.Found {
		return
	}
	if !r.started {
		if bit == 1 {
			r.started = true
			r.startAt = s.step
		}
		return
	}
	r.v |= bit << r.nbits
	r.nbits++
	if r.nbits == s.payloadBits {
		// The presence bit of a source at hop distance h arrives at relay
		// step h (steps are 1-based).
		r.info = SideInfo{Found: true, Payload: r.v, Hops: r.startAt}
	}
}

// clip reports a side's source only if its full payload arrived within the
// distance budget.
func (s *sparseRelay) clip(r sparseRecv) SideInfo {
	if !r.info.Found || r.info.Hops > s.distance {
		return SideInfo{}
	}
	return r.info
}
