package rcomm

import (
	"context"
	"errors"
	"testing"

	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/engine/enginetest"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// withLink is run with every agent's step starting on an established Link.
func withLink[T any](nw *engine.Network, step func(a *engine.Agent, l *Link, k func(T) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)) (*engine.Result[T], error) {
	return enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(T) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return EstablishStep(core.NewFrame(a), func(l *Link) (engine.Yield, engine.Cont) { return step(a, l, k) })
	})
}

// rejects runs each case as its own protocol on nw — link establishment, then
// the case's operation — and requires the operation to fail the run, after
// checking that link establishment alone succeeds on nw.
func rejects(t *testing.T, nw *engine.Network, cases map[string]func(l *Link) (engine.Yield, engine.Cont)) {
	t.Helper()
	if _, err := withLink(nw, func(_ *engine.Agent, _ *Link, k func(struct{}) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return k(struct{}{})
	}); err != nil {
		t.Fatalf("link establishment: %v", err)
	}
	for name, op := range cases {
		if _, err := withLink(nw, func(_ *engine.Agent, l *Link, _ func(struct{}) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return op(l)
		}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func newNetwork(t *testing.T, opt netgen.Options) *engine.Network {
	t.Helper()
	opt.Model = ring.Perceptive
	cfg, err := netgen.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// frameNeighbour returns the ring index of agent i's neighbour on its
// frame-clockwise (right=true) or frame-anticlockwise side, at the given hop
// distance.
func frameNeighbour(nw *engine.Network, i int, right bool, hops int) int {
	n := nw.N()
	step := hops
	if nw.ChiralityOf(i) != right {
		step = -hops
	}
	return ((i+step)%n + n) % n
}

// trueGapTo returns the arc (half-ticks) from agent i to its immediate
// frame-side neighbour.
func trueGapTo(nw *engine.Network, i int, right bool) int64 {
	gaps := nw.Gaps()
	n := nw.N()
	if nw.ChiralityOf(i) == right {
		return 2 * gaps[i]
	}
	return 2 * gaps[((i-1)%n+n)%n]
}

func TestNeighborDiscovery(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		nw := newNetwork(t, netgen.Options{N: 9, IDBound: 64, Seed: seed, MixedChirality: true, ForceSplitChirality: true})
		res, err := enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(Neighbors) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return NeighborDiscoveryStep(core.NewFrame(a), k)
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, nb := range res.Outputs {
			if want := trueGapTo(nw, i, true); nb.RightGap != want {
				t.Errorf("seed %d agent %d: right gap %d, want %d", seed, i, nb.RightGap, want)
			}
			if want := trueGapTo(nw, i, false); nb.LeftGap != want {
				t.Errorf("seed %d agent %d: left gap %d, want %d", seed, i, nb.LeftGap, want)
			}
			rIdx := frameNeighbour(nw, i, true, 1)
			if want := nw.ChiralityOf(i) == nw.ChiralityOf(rIdx); nb.RightSameSense != want {
				t.Errorf("seed %d agent %d: right same-sense %v, want %v", seed, i, nb.RightSameSense, want)
			}
			lIdx := frameNeighbour(nw, i, false, 1)
			if want := nw.ChiralityOf(i) == nw.ChiralityOf(lIdx); nb.LeftSameSense != want {
				t.Errorf("seed %d agent %d: left same-sense %v, want %v", seed, i, nb.LeftSameSense, want)
			}
		}
		// The configuration must be restored.
		init, cur := nw.InitialPositions(), nw.CurrentPositions()
		for i := range init {
			if init[i] != cur[i] {
				t.Fatalf("seed %d: configuration not restored", seed)
			}
		}
	}
}

func TestNeighborDiscoveryRequiresPerceptive(t *testing.T) {
	cfg := netgen.MustGenerate(netgen.Options{N: 6, Seed: 1, Model: ring.Basic})
	cfg.Model = ring.Basic
	nw, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = enginetest.RunSteps(context.Background(), nw, func(a *engine.Agent, k func(Neighbors) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return NeighborDiscoveryStep(core.NewFrame(a), k)
	})
	if !errors.Is(err, ErrNeedPerceptive) {
		t.Fatalf("got %v, want ErrNeedPerceptive", err)
	}
}

func TestExchangeBit(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		nw := newNetwork(t, netgen.Options{N: 8, IDBound: 64, Seed: seed, MixedChirality: true, ForceSplitChirality: true})
		myBit := func(id int) int { return (id / 3) % 2 }
		type out struct {
			left, right int
		}
		res, err := withLink(nw, func(a *engine.Agent, link *Link, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return link.ExchangeBitStep(myBit(a.ID()), func(l, r int) (engine.Yield, engine.Cont) { return k(out{l, r}) })
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, o := range res.Outputs {
			rIdx := frameNeighbour(nw, i, true, 1)
			lIdx := frameNeighbour(nw, i, false, 1)
			if want := myBit(nw.IDOf(rIdx)); o.right != want {
				t.Errorf("seed %d agent %d: right bit %d, want %d", seed, i, o.right, want)
			}
			if want := myBit(nw.IDOf(lIdx)); o.left != want {
				t.Errorf("seed %d agent %d: left bit %d, want %d", seed, i, o.left, want)
			}
		}
	}
}

func TestExchangeBitValidation(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 6, Seed: 2})
	rejects(t, nw, map[string]func(l *Link) (engine.Yield, engine.Cont){
		"bit=7": func(l *Link) (engine.Yield, engine.Cont) {
			return l.ExchangeBitStep(7, func(int, int) (engine.Yield, engine.Cont) { return engine.Abort(nil) })
		},
	})
}

func TestExchangeWordAndExchange(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 7, IDBound: 64, Seed: 9, MixedChirality: true, ForceSplitChirality: true})
	const bits = 6
	type out struct {
		wordLeft, wordRight uint64
		fromLeft, fromRight uint64
	}
	res, err := withLink(nw, func(a *engine.Agent, link *Link, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return link.ExchangeWordStep(uint64(a.ID()), bits, func(wl, wr uint64) (engine.Yield, engine.Cont) {
			// Directed exchange: send ID+1 to the left neighbour, ID+2 to
			// the right.
			return link.ExchangeStep(uint64(a.ID()+1), uint64(a.ID()+2), bits+2, func(fl, fr uint64) (engine.Yield, engine.Cont) {
				return k(out{wl, wr, fl, fr})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		rIdx := frameNeighbour(nw, i, true, 1)
		lIdx := frameNeighbour(nw, i, false, 1)
		if o.wordRight != uint64(nw.IDOf(rIdx)) || o.wordLeft != uint64(nw.IDOf(lIdx)) {
			t.Errorf("agent %d: word exchange got L=%d R=%d, want L=%d R=%d",
				i, o.wordLeft, o.wordRight, nw.IDOf(lIdx), nw.IDOf(rIdx))
		}
		// The right neighbour sent "ID+1 to its left, ID+2 to its right"; what
		// it addressed to us depends on which of its sides we are on.
		wantFromRight := uint64(nw.IDOf(rIdx) + 1)
		if nw.ChiralityOf(i) != nw.ChiralityOf(rIdx) {
			wantFromRight = uint64(nw.IDOf(rIdx) + 2)
		}
		wantFromLeft := uint64(nw.IDOf(lIdx) + 2)
		if nw.ChiralityOf(i) != nw.ChiralityOf(lIdx) {
			wantFromLeft = uint64(nw.IDOf(lIdx) + 1)
		}
		if o.fromRight != wantFromRight || o.fromLeft != wantFromLeft {
			t.Errorf("agent %d: directed exchange got L=%d R=%d, want L=%d R=%d",
				i, o.fromLeft, o.fromRight, wantFromLeft, wantFromRight)
		}
	}
}

func TestDisseminate(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 11, IDBound: 128, Seed: 14, MixedChirality: true, ForceSplitChirality: true})
	// Sources: the two agents with the largest IDs.
	ids := make([]int, nw.N())
	for i := range ids {
		ids[i] = nw.IDOf(i)
	}
	max1, max2 := 0, 0
	for _, id := range ids {
		if id > max1 {
			max1, max2 = id, max1
		} else if id > max2 {
			max2 = id
		}
	}
	isSource := func(id int) bool { return id == max1 || id == max2 }
	const distance = 3
	type out struct {
		left, right SideInfo
	}
	res, err := withLink(nw, func(a *engine.Agent, link *Link, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return link.DisseminateStep(isSource(a.ID()), uint64(a.ID()), 8, distance, func(l, r SideInfo) (engine.Yield, engine.Cont) {
			return k(out{l, r})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: nearest source within `distance` hops on each frame side.
	nearest := func(i int, right bool) (bool, int, int) {
		for h := 1; h <= distance; h++ {
			j := frameNeighbour(nw, i, right, h)
			if isSource(nw.IDOf(j)) {
				return true, nw.IDOf(j), h
			}
		}
		return false, 0, 0
	}
	for i, o := range res.Outputs {
		for _, side := range []struct {
			name  string
			got   SideInfo
			right bool
		}{{"left", o.left, false}, {"right", o.right, true}} {
			found, id, hops := nearest(i, side.right)
			if side.got.Found != found {
				t.Errorf("agent %d %s: found %v, want %v", i, side.name, side.got.Found, found)
				continue
			}
			if found && (int(side.got.Payload) != id || side.got.Hops != hops) {
				t.Errorf("agent %d %s: payload %d hops %d, want %d %d",
					i, side.name, side.got.Payload, side.got.Hops, id, hops)
			}
		}
	}
}

// TestDisseminateSparse checks the pipelined Corollary 34 variant against the
// same ground truth as the generic Disseminate, with sources far enough
// apart, and verifies that it is cheaper than the generic version for long
// payloads.
func TestDisseminateSparse(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 12, IDBound: 128, Seed: 31, MixedChirality: true, ForceSplitChirality: true})
	// Two sources on opposite sides of the ring (ring distance 6 >= distance).
	srcA, srcB := 0, 6
	isSource := func(idx int) bool { return idx == srcA || idx == srcB }
	const distance = 3
	const payloadBits = 8
	type out struct {
		left, right   SideInfo
		sparseRounds  int
		genericRounds int
	}
	idxOf := map[int]int{}
	for i := 0; i < nw.N(); i++ {
		idxOf[nw.IDOf(i)] = i
	}
	res, err := withLink(nw, func(a *engine.Agent, link *Link, k func(out) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		me := idxOf[a.ID()]
		before := a.RoundsUsed()
		return link.DisseminateSparseStep(isSource(me), uint64(a.ID()), payloadBits, distance, func(l, r SideInfo) (engine.Yield, engine.Cont) {
			mid := a.RoundsUsed()
			return link.DisseminateStep(isSource(me), uint64(a.ID()), payloadBits, distance, func(SideInfo, SideInfo) (engine.Yield, engine.Cont) {
				return k(out{l, r, mid - before, a.RoundsUsed() - mid})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	nearest := func(i int, right bool) (bool, int, int) {
		for h := 1; h <= distance; h++ {
			j := frameNeighbour(nw, i, right, h)
			if isSource(j) {
				return true, nw.IDOf(j), h
			}
		}
		return false, 0, 0
	}
	for i, o := range res.Outputs {
		for _, side := range []struct {
			name  string
			got   SideInfo
			right bool
		}{{"left", o.left, false}, {"right", o.right, true}} {
			found, id, hops := nearest(i, side.right)
			if side.got.Found != found || (found && (int(side.got.Payload) != id || side.got.Hops != hops)) {
				t.Errorf("agent %d %s: got %+v, want found=%v payload=%d hops=%d",
					i, side.name, side.got, found, id, hops)
			}
		}
		if o.sparseRounds >= o.genericRounds {
			t.Errorf("agent %d: sparse dissemination (%d rounds) not cheaper than generic (%d rounds)",
				i, o.sparseRounds, o.genericRounds)
		}
	}
}

func TestDisseminateSparseValidation(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 6, Seed: 9})
	sparse := func(payloadBits, distance int) func(l *Link) (engine.Yield, engine.Cont) {
		return func(l *Link) (engine.Yield, engine.Cont) {
			return l.DisseminateSparseStep(false, 0, payloadBits, distance, func(SideInfo, SideInfo) (engine.Yield, engine.Cont) { return engine.Abort(nil) })
		}
	}
	rejects(t, nw, map[string]func(l *Link) (engine.Yield, engine.Cont){
		"distance 0":        sparse(8, 0),
		"payloadBits 0":     sparse(0, 2),
		"oversized payload": sparse(61, 2),
	})
}

func TestDisseminateValidation(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 6, Seed: 3})
	sides := func(SideInfo, SideInfo) (engine.Yield, engine.Cont) { return engine.Abort(nil) }
	words := func(uint64, uint64) (engine.Yield, engine.Cont) { return engine.Abort(nil) }
	rejects(t, nw, map[string]func(l *Link) (engine.Yield, engine.Cont){
		"distance 0":        func(l *Link) (engine.Yield, engine.Cont) { return l.DisseminateStep(false, 0, 8, 0, sides) },
		"payloadBits 0":     func(l *Link) (engine.Yield, engine.Cont) { return l.DisseminateStep(false, 0, 0, 3, sides) },
		"oversized message": func(l *Link) (engine.Yield, engine.Cont) { return l.DisseminateStep(false, 0, 40, 3, sides) },
		"valueBits 0": func(l *Link) (engine.Yield, engine.Cont) {
			return l.AggregateMaxStep(false, 0, 0, 3, func(uint64, bool) (engine.Yield, engine.Cont) { return engine.Abort(nil) })
		},
		"aggregate distance 0": func(l *Link) (engine.Yield, engine.Cont) {
			return l.AggregateMaxStep(false, 0, 8, 0, func(uint64, bool) (engine.Yield, engine.Cont) { return engine.Abort(nil) })
		},
		"0-bit word":         func(l *Link) (engine.Yield, engine.Cont) { return l.ExchangeWordStep(0, 0, words) },
		"oversized exchange": func(l *Link) (engine.Yield, engine.Cont) { return l.ExchangeStep(0, 0, 40, words) },
	})
}

func TestAggregateMax(t *testing.T) {
	nw := newNetwork(t, netgen.Options{N: 10, IDBound: 256, Seed: 21, MixedChirality: true, ForceSplitChirality: true})
	const distance = 2
	// Every agent is a source with its own ID: the aggregate is the maximum
	// ID within ring distance 2 (in either direction).
	res, err := withLink(nw, func(a *engine.Agent, link *Link, k func(uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return link.AggregateMaxStep(true, uint64(a.ID()), 9, distance, func(max uint64, found bool) (engine.Yield, engine.Cont) {
			if !found {
				return engine.Abort(errors.New("aggregate found nothing"))
			}
			return k(max)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	n := nw.N()
	for i, got := range res.Outputs {
		want := nw.IDOf(i)
		for h := 1; h <= distance; h++ {
			for _, j := range []int{((i+h)%n + n) % n, ((i-h)%n + n) % n} {
				if nw.IDOf(j) > want {
					want = nw.IDOf(j)
				}
			}
		}
		if int(got) != want {
			t.Errorf("agent %d: max %d, want %d", i, got, want)
		}
	}
}
