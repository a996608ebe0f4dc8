package comb

import (
	"fmt"
	"math"
)

// RandomDistinguisher is the seeded substitute for the non-constructive
// distinguisher of Theorem 27: every element of [1..N] belongs to every set
// independently with probability 1/2 (membership is computed from a hash, so
// arbitrarily long prefixes are available without storing the sets).
//
// By Theorem 27 a prefix of length O(n·log(N/n)/log n) is an
// (N,n)-distinguisher with positive probability; package-level verifiers and
// the benchmark harness measure the prefix length actually needed.
type RandomDistinguisher struct {
	universe int
	length   int
	seed     int64
}

var _ SetFamily = (*RandomDistinguisher)(nil)

// NewRandomDistinguisher creates a pseudo-random family with the given prefix
// length over the universe [1..universe].
func NewRandomDistinguisher(universe, length int, seed int64) (*RandomDistinguisher, error) {
	r := new(RandomDistinguisher)
	if err := r.Reset(universe, length, seed); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset re-initialises r in place as NewRandomDistinguisher would build it;
// on error r is unchanged.
func (r *RandomDistinguisher) Reset(universe, length int, seed int64) error {
	if universe <= 0 {
		return ErrBadUniverse
	}
	if length < 0 {
		return fmt.Errorf("%w: length %d", ErrBadSize, length)
	}
	*r = RandomDistinguisher{universe: universe, length: length, seed: seed}
	return nil
}

// Len implements SetFamily.
func (r *RandomDistinguisher) Len() int { return r.length }

// Universe implements SetFamily.
func (r *RandomDistinguisher) Universe() int { return r.universe }

// Contains implements SetFamily.
func (r *RandomDistinguisher) Contains(i, id int) bool {
	return hash01(r.seed, i, id) < 0.5
}

// WithLength returns a view of the same pseudo-random stream with a different
// prefix length.
func (r *RandomDistinguisher) WithLength(length int) *RandomDistinguisher {
	cp := *r
	cp.length = length
	return &cp
}

// Distinguishes reports whether some set with index < limit of the family
// separates X1 and X2, i.e. |S_i ∩ X1| != |S_i ∩ X2| (Definition 20).  A
// negative limit means the whole family.
func Distinguishes(f SetFamily, x1, x2 []int, limit int) bool {
	return FirstSeparator(f, x1, x2, limit) >= 0
}

// FirstSeparator returns the index of the first set (below limit) that
// separates X1 and X2, or -1 if none does.  A negative limit means the whole
// family.
func FirstSeparator(f SetFamily, x1, x2 []int, limit int) int {
	if limit < 0 || limit > f.Len() {
		limit = f.Len()
	}
	for i := 0; i < limit; i++ {
		c1, c2 := 0, 0
		for _, id := range x1 {
			if f.Contains(i, id) {
				c1++
			}
		}
		for _, id := range x2 {
			if f.Contains(i, id) {
				c2++
			}
		}
		if c1 != c2 {
			return i
		}
	}
	return -1
}

// IsDistinguisher exhaustively verifies Definition 20: every pair of disjoint
// n-subsets of [1..N] is separated by some set of the family.  The check
// enumerates all pairs, so it is only feasible for small N and n; it is used
// by tests to validate the semantics of the faster constructions.
func IsDistinguisher(f SetFamily, n int) bool {
	universe := f.Universe()
	if n <= 0 || 2*n > universe {
		return true // no disjoint pair exists; vacuously a distinguisher
	}
	x1 := make([]int, 0, n)
	x2 := make([]int, 0, n)
	var enumerate func(start int, chosen []int, k int, then func([]int) bool) bool
	enumerate = func(start int, chosen []int, k int, then func([]int) bool) bool {
		if len(chosen) == k {
			return then(chosen)
		}
		for v := start; v <= universe; v++ {
			if !enumerate(v+1, append(chosen, v), k, then) {
				return false
			}
		}
		return true
	}
	ok := enumerate(1, x1, n, func(a []int) bool {
		x1 := append([]int(nil), a...)
		in1 := make(map[int]bool, n)
		for _, v := range x1 {
			in1[v] = true
		}
		return enumerate(1, x2, n, func(b []int) bool {
			for _, v := range b {
				if in1[v] {
					return true // not disjoint; skip
				}
			}
			// Only check each unordered pair once.
			if b[0] < x1[0] {
				return true
			}
			return Distinguishes(f, x1, b, -1)
		})
	})
	return ok
}

// MinimalDistinguisherPrefix returns the smallest prefix length of f that
// separates every disjoint pair of n-subsets, or -1 if even the full family
// fails.  Exponential in N; intended for small instances and for the
// experiments of Corollary 29.
func MinimalDistinguisherPrefix(f SetFamily, n int) int {
	lo, hi := 0, f.Len()
	if !IsDistinguisher(prefixFamily{f, hi}, n) {
		return -1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if IsDistinguisher(prefixFamily{f, mid}, n) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// prefixFamily restricts a family to its first k sets.
type prefixFamily struct {
	SetFamily
	k int
}

func (p prefixFamily) Len() int { return p.k }

// DistinguisherLowerBound evaluates the Ω(n·log(N/n)/log n) lower bound of
// Lemma 23 / Corollary 29 (as a plain formula, without the hidden constant).
func DistinguisherLowerBound(universe, n int) float64 {
	if n <= 1 || universe <= n {
		return 1
	}
	return float64(n) * Log2(float64(universe)/float64(n)) / Log2(float64(n))
}

// CountingLowerBound evaluates the simpler counting bound of Lemma 43,
// log_{n+1} C(N,n), valid for strong distinguishers.
func CountingLowerBound(universe, n int) float64 {
	if n <= 0 || universe < n {
		return 0
	}
	// log2 C(N,n) = sum log2((N-i)/(n-i))
	var logBinom float64
	for i := 0; i < n; i++ {
		logBinom += math.Log2(float64(universe-i) / float64(n-i))
	}
	return logBinom / Log2(float64(n+1))
}

// IsIntersectionFree verifies Definition 24: no two distinct sets of the
// family (interpreted as k-subsets) intersect in exactly l elements.
func IsIntersectionFree(sets [][]int, l int) bool {
	for i := range sets {
		mi := make(map[int]bool, len(sets[i]))
		for _, v := range sets[i] {
			mi[v] = true
		}
		for j := i + 1; j < len(sets); j++ {
			common := 0
			for _, v := range sets[j] {
				if mi[v] {
					common++
				}
			}
			if common == l {
				return false
			}
		}
	}
	return true
}
