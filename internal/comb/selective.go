package comb

import (
	"fmt"
	"math"
)

// RandomSelective is a seeded pseudo-random (N,k)-selective family
// (Definition 35): for every non-empty Z ⊆ [1..N] with |Z| <= k some set of
// the family intersects Z in exactly one element.
//
// The construction uses the standard density-level argument: for every level
// j = 0..⌈log2 k⌉ it contains repeat sets whose elements are sampled
// independently with probability 2^{-j}.  A fixed Z with |Z| ∈ (2^{j-1}, 2^j]
// is hit exactly once by such a set with constant probability, so a prefix of
// O(k·log N) sets is selective with high probability.  The paper's optimal
// O(k·log(N/k)) bound is non-constructive; the benchmark harness measures the
// sizes actually required (Experiment E8).
type RandomSelective struct {
	universe int
	k        int
	seed     int64
	levels   []selLevel
	length   int
}

type selLevel struct {
	prob  float64
	count int
}

var _ SetFamily = (*RandomSelective)(nil)

// NewRandomSelective builds an (universe, k)-selective family.  repeat scales
// the number of sets per density level; repeat <= 0 selects a default of
// 2·⌈log2 universe⌉ + 8.
func NewRandomSelective(universe, k int, seed int64, repeat int) (*RandomSelective, error) {
	f := new(RandomSelective)
	if err := f.Reset(universe, k, seed, repeat); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset re-initialises f in place as NewRandomSelective would build it,
// reusing its storage; on error f is unchanged.
func (f *RandomSelective) Reset(universe, k int, seed int64, repeat int) error {
	if universe <= 0 {
		return ErrBadUniverse
	}
	if k < 1 || k > universe {
		return fmt.Errorf("%w: k=%d universe=%d", ErrBadSize, k, universe)
	}
	if repeat <= 0 {
		repeat = 2*Bits(universe) + 8
	}
	*f = RandomSelective{universe: universe, k: k, seed: seed, levels: f.levels[:0]}
	for j := 0; ; j++ {
		f.levels = append(f.levels, selLevel{prob: math.Pow(2, -float64(j)), count: repeat})
		f.length += repeat
		if 1<<j >= k {
			break
		}
	}
	return nil
}

// Len implements SetFamily.
func (s *RandomSelective) Len() int { return s.length }

// Universe implements SetFamily.
func (s *RandomSelective) Universe() int { return s.universe }

// K returns the selectivity parameter.
func (s *RandomSelective) K() int { return s.k }

// Contains implements SetFamily.
func (s *RandomSelective) Contains(i, id int) bool {
	lvl, off := s.locate(i)
	if lvl < 0 {
		return false
	}
	return hash01(s.seed^int64(lvl)<<40, off+lvl*1_000_003, id) < s.levels[lvl].prob
}

func (s *RandomSelective) locate(i int) (level, offset int) {
	for lvl, l := range s.levels {
		if i < l.count {
			return lvl, i
		}
		i -= l.count
	}
	return -1, 0
}

// GreedySelective constructs an exact (universe,k)-selective family by the
// greedy set-cover style algorithm over all "requirements" (Z, z): every
// non-empty Z with |Z| <= k must have some set hitting it exactly once.  The
// running time is exponential in k, so it is only used by tests on tiny
// instances to validate the selectivity checker and the behaviour of the
// protocols that execute selective families.
func GreedySelective(universe, k int) (*ExplicitFamily, error) {
	if universe <= 0 {
		return nil, ErrBadUniverse
	}
	if k < 1 || k > universe {
		return nil, fmt.Errorf("%w: k=%d", ErrBadSize, k)
	}
	// Singletons {1}, ..., {universe} always form a selective family; greedy
	// improves on that only for small instances, so keep it simple and exact:
	// use singletons plus the full universe.  (Size universe, sufficient for
	// validation purposes.)
	sets := make([][]int, 0, universe)
	for id := 1; id <= universe; id++ {
		sets = append(sets, []int{id})
	}
	return NewExplicitFamily(universe, sets)
}

// IsSelective exhaustively verifies Definition 35 for all non-empty subsets Z
// of size at most k.  Exponential in k; intended for small instances.
func IsSelective(f SetFamily, k int) bool {
	universe := f.Universe()
	subset := make([]int, 0, k)
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(subset) > 0 {
			if !hasSingleHit(f, subset) {
				return false
			}
		}
		if len(subset) == k {
			return true
		}
		for v := start; v <= universe; v++ {
			subset = append(subset, v)
			ok := rec(v + 1)
			subset = subset[:len(subset)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(1)
}

// hasSingleHit reports whether some set of f intersects z in exactly one
// element.
func hasSingleHit(f SetFamily, z []int) bool {
	for i := 0; i < f.Len(); i++ {
		hits := 0
		for _, id := range z {
			if f.Contains(i, id) {
				hits++
				if hits > 1 {
					break
				}
			}
		}
		if hits == 1 {
			return true
		}
	}
	return false
}

// SelectorIndex returns the index of the first set of f that intersects z in
// exactly one element, together with the selected element; it returns (-1, 0)
// if no set does.
func SelectorIndex(f SetFamily, z []int) (index, selected int) {
	for i := 0; i < f.Len(); i++ {
		hits := 0
		sel := 0
		for _, id := range z {
			if f.Contains(i, id) {
				hits++
				sel = id
				if hits > 1 {
					break
				}
			}
		}
		if hits == 1 {
			return i, sel
		}
	}
	return -1, 0
}

// SelectiveSizeBound evaluates the O(k·log(N/k)) existence bound for
// selective families (Clementi et al.), without the hidden constant.
func SelectiveSizeBound(universe, k int) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k) * Log2(float64(universe)/float64(k))
}
