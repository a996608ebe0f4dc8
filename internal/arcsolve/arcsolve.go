// Package arcsolve solves systems of "arc length" equations on a ring.
//
// The location-discovery protocols of the paper collect, round after round,
// linear equations over the unknown gaps g_0, ..., g_{n-1} between
// consecutive agents: every equation states that the clockwise arc starting
// at some slot and spanning some number of slots has a known length
// (Section V-C: "each round provides two new equations").  Writing
// P_j = g_0 + ... + g_{j-1} for the prefix sums, every such equation is a
// difference constraint P_b − P_a = w, so the system is solved with a
// weighted union-find over the prefix nodes: all gaps are determined exactly
// when every node is connected to node 0.
package arcsolve

import (
	"errors"
	"fmt"
)

// Errors returned by the solver.
var (
	ErrInconsistent = errors.New("arcsolve: inconsistent arc equation")
	ErrBadArc       = errors.New("arcsolve: invalid arc")
	ErrUnsolved     = errors.New("arcsolve: system is not yet fully determined")
)

// Solver accumulates arc equations over a ring of n slots whose gaps sum to
// the full circle length.
type Solver struct {
	n      int
	full   int64
	parent []int
	// offset[x] is P_x − P_parent[x]; after path compression it is the
	// offset to the root.
	offset []int64
	size   []int
	// merged counts union operations that actually joined two components.
	merged int
}

// New creates a solver for n gaps on a circle of the given total length
// (same unit as the equation values).
func New(n int, full int64) (*Solver, error) {
	s := new(Solver)
	if err := s.Reset(n, full); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-initialises s in place as New(n, full) would build it, without
// equations, reusing its storage; on error s is unchanged.
func (s *Solver) Reset(n int, full int64) error {
	if n < 2 || full <= 0 {
		return fmt.Errorf("%w: n=%d full=%d", ErrBadArc, n, full)
	}
	if cap(s.parent) < n {
		s.parent, s.offset, s.size = make([]int, n), make([]int64, n), make([]int, n)
	}
	s.n, s.full, s.merged = n, full, 0
	s.parent, s.offset, s.size = s.parent[:n], s.offset[:n], s.size[:n]
	for i := range s.parent {
		s.parent[i], s.offset[i], s.size[i] = i, 0, 1
	}
	return nil
}

// N returns the number of gaps.
func (s *Solver) N() int { return s.n }

// find returns the root of x and the offset P_x − P_root.
func (s *Solver) find(x int) (int, int64) {
	if s.parent[x] == x {
		return x, 0
	}
	root, off := s.find(s.parent[x])
	s.parent[x] = root
	s.offset[x] += off
	return root, s.offset[x]
}

// addDiff records P_b − P_a = d.
func (s *Solver) addDiff(a, b int, d int64) error {
	ra, oa := s.find(a)
	rb, ob := s.find(b)
	if ra == rb {
		if ob-oa != d {
			return fmt.Errorf("%w: P_%d − P_%d = %d conflicts with %d", ErrInconsistent, b, a, ob-oa, d)
		}
		return nil
	}
	// Attach the smaller tree under the larger.
	if s.size[ra] < s.size[rb] {
		ra, rb = rb, ra
		oa, ob = ob, oa
		a, b = b, a
		d = -d
	}
	// P_rb − P_ra = (P_b − ob) − (P_a − oa) = d − ob + oa.
	s.parent[rb] = ra
	s.offset[rb] = d - ob + oa
	s.size[ra] += s.size[rb]
	s.merged++
	return nil
}

// AddArc records that the clockwise arc starting at slot `from` and spanning
// `length` slots has the given total length.  length must be in [0, n]; a
// zero-length arc must have value 0 and a full-circle arc must have the full
// length (both carry no information).
func (s *Solver) AddArc(from, length int, value int64) error {
	if from < 0 || from >= s.n || length < 0 || length > s.n {
		return fmt.Errorf("%w: from=%d length=%d", ErrBadArc, from, length)
	}
	switch length {
	case 0:
		if value != 0 {
			return fmt.Errorf("%w: zero-length arc with value %d", ErrInconsistent, value)
		}
		return nil
	case s.n:
		if value != s.full {
			return fmt.Errorf("%w: full-circle arc with value %d (full %d)", ErrInconsistent, value, s.full)
		}
		return nil
	}
	to := (from + length) % s.n
	diff := value
	if from+length >= s.n {
		// The arc reaches or wraps past slot 0: P_to − P_from = value − full.
		diff = value - s.full
	}
	return s.addDiff(from, to, diff)
}

// Solved reports whether every gap is determined.
func (s *Solver) Solved() bool { return s.merged == s.n-1 }

// Prefix returns P_j relative to P_0 when both are in the same component.
func (s *Solver) Prefix(j int) (int64, bool) {
	if j < 0 || j >= s.n {
		return 0, false
	}
	r0, o0 := s.find(0)
	rj, oj := s.find(j)
	if r0 != rj {
		return 0, false
	}
	return oj - o0, true
}

// Gaps returns the solved gap values g_0..g_{n-1}; it fails when the system
// is not fully determined.
func (s *Solver) Gaps() ([]int64, error) {
	if !s.Solved() {
		return nil, ErrUnsolved
	}
	// gaps[j] = P_{j+1} − P_j, with P_n = full.
	gaps := make([]int64, s.n)
	for j := 0; j < s.n; j++ {
		p, ok := s.Prefix(j)
		if !ok {
			return nil, ErrUnsolved
		}
		gaps[j] = p
	}
	for j := 0; j < s.n; j++ {
		next := s.full
		if j+1 < s.n {
			next = gaps[j+1]
		}
		gaps[j] = next - gaps[j]
		if gaps[j] <= 0 {
			return nil, fmt.Errorf("%w: derived non-positive gap g_%d = %d", ErrInconsistent, j, gaps[j])
		}
	}
	return gaps, nil
}
