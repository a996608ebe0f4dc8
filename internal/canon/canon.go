// Package canon canonicalizes ring-network configurations under the
// symmetries of the model: rotation of the ring indexing, reflection of the
// global orientation (with the induced chirality flip) and translation of the
// position frame.  Two configurations in the same orbit are
// observation-equivalent — every agent keeps its identifier, its identifier
// bound, the parity knowledge and its own-frame observation stream, because
// the engine never reveals ring indices or absolute positions to protocols —
// so any protocol outcome on one member of the orbit is the outcome on every
// member, modulo the frame map between them.  This is the proof obligation
// encoded as property tests in canon_test.go: Run(s) == Run(canon(s)) modulo
// the returned Map, for all three movement models, both chirality regimes and
// both task pipelines.
//
// Canonicalize picks a distinguished representative of the orbit (the
// lexicographically smallest (gap, identifier, chirality) traversal over all
// 2n framings, with positions rebased so the first agent sits at 0) and Key
// derives a byte-stable cache key from it.  Package internal/memo uses the
// key to deduplicate symmetric scenarios, and internal/campaign translates
// memoised outcomes back through the Map.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"ringsym/internal/engine"
)

// ErrBadConfig is returned (wrapped) when a configuration cannot be
// canonicalized.
var ErrBadConfig = errors.New("canon: bad configuration")

// Map is the frame transformation from an original configuration to a member
// of its orbit (in particular the canonical representative): canonical index
// j corresponds to original ring index Rotation+j (mod n) when not reflected,
// and Rotation-j (mod n) when reflected.
type Map struct {
	// N is the number of agents.
	N int
	// Rotation is the original ring index of the agent that becomes index 0.
	Rotation int
	// Reflected reports that the traversal orientation was reversed (and
	// every chirality bit flipped with it).
	Reflected bool
}

// CanonIndex maps an original ring index to its canonical index.
func (m Map) CanonIndex(orig int) int {
	if m.Reflected {
		return ((m.Rotation-orig)%m.N + m.N) % m.N
	}
	return ((orig-m.Rotation)%m.N + m.N) % m.N
}

// OrigIndex maps a canonical index back to the original ring index.
func (m Map) OrigIndex(c int) int {
	if m.Reflected {
		return ((m.Rotation-c)%m.N + m.N) % m.N
	}
	return ((m.Rotation+c)%m.N + m.N) % m.N
}

// orbitView is the read-only decomposition of a configuration that the
// candidate comparison walks: positions, identifiers and explicit chirality
// bits by ring index.  The clockwise gaps are derived from the positions on
// demand, so building a view allocates nothing.
type orbitView struct {
	n    int
	circ int64
	pos  []int64
	ids  []int
	chir []bool // nil means all true
}

func (v *orbitView) chirAt(i int) bool {
	if v.chir == nil {
		return true
	}
	return v.chir[i]
}

// gap is the clockwise arc from the agent at ring index a to the next one.
func (v *orbitView) gap(a int) int64 {
	if a == v.n-1 {
		return v.circ - v.pos[a] + v.pos[0]
	}
	return v.pos[a+1] - v.pos[a]
}

// tupleAt returns the j-th (gap, id, chirality) tuple of the traversal that
// starts at ring index r with the given orientation.  Forward traversals walk
// clockwise, so the gap is the arc to the next agent clockwise; reflected
// traversals walk anticlockwise, so the gap is the arc to the previous agent,
// and the chirality bit is flipped because the agent's private clockwise is
// now measured against the reversed global orientation.  Both r and j lie
// in [0, n), so a conditional wrap stands in for each modulo.
func (v *orbitView) tupleAt(r int, reflected bool, j int) (gap int64, id int, chir bool) {
	if reflected {
		a := r - j
		if a < 0 {
			a += v.n
		}
		prev := a - 1
		if prev < 0 {
			prev += v.n
		}
		return v.gap(prev), v.ids[a], !v.chirAt(a)
	}
	a := r + j
	if a >= v.n {
		a -= v.n
	}
	return v.gap(a), v.ids[a], v.chirAt(a)
}

// less reports whether candidate framing (r1, f1) encodes strictly
// lexicographically smaller than (r2, f2).
func (v *orbitView) less(r1 int, f1 bool, r2 int, f2 bool) bool {
	for j := 0; j < v.n; j++ {
		g1, id1, c1 := v.tupleAt(r1, f1, j)
		g2, id2, c2 := v.tupleAt(r2, f2, j)
		if g1 != g2 {
			return g1 < g2
		}
		if id1 != id2 {
			return id1 < id2
		}
		if c1 != c2 {
			return !c1 // false sorts before true
		}
	}
	return false
}

func view(cfg *engine.Config) (orbitView, error) {
	n := len(cfg.Positions)
	if n < 2 {
		return orbitView{}, fmt.Errorf("%w: %d agents", ErrBadConfig, n)
	}
	if cfg.Circ <= 0 {
		return orbitView{}, fmt.Errorf("%w: circumference %d", ErrBadConfig, cfg.Circ)
	}
	if len(cfg.IDs) != n {
		return orbitView{}, fmt.Errorf("%w: %d IDs for %d agents", ErrBadConfig, len(cfg.IDs), n)
	}
	if cfg.Chirality != nil && len(cfg.Chirality) != n {
		return orbitView{}, fmt.Errorf("%w: %d chirality bits for %d agents", ErrBadConfig, len(cfg.Chirality), n)
	}
	for i := 0; i < n; i++ {
		if cfg.Positions[i] < 0 || cfg.Positions[i] >= cfg.Circ {
			return orbitView{}, fmt.Errorf("%w: position %d out of [0, %d)", ErrBadConfig, cfg.Positions[i], cfg.Circ)
		}
		if i > 0 && cfg.Positions[i] <= cfg.Positions[i-1] {
			return orbitView{}, fmt.Errorf("%w: positions not strictly increasing", ErrBadConfig)
		}
	}
	return orbitView{n: n, circ: cfg.Circ, pos: cfg.Positions, ids: cfg.IDs, chir: cfg.Chirality}, nil
}

// build materialises the framing (r, reflected) of v as a configuration:
// positions are the prefix sums of the traversal's gaps (the frame is
// translated so the first agent sits at 0), identifiers and chirality follow
// the traversal.  A chirality slice that comes out all-true collapses to nil,
// the engine's normal form for it.
func build(cfg *engine.Config, v *orbitView, r int, reflected bool) engine.Config {
	n := v.n
	out := *cfg // copies Model, Circ, IDBound, HideParity, MaxRounds, AllowSmall
	out.Positions = make([]int64, n)
	out.IDs = make([]int, n)
	chir := make([]bool, n)
	allTrue := true
	var pos int64
	for j := 0; j < n; j++ {
		gap, id, c := v.tupleAt(r, reflected, j)
		out.Positions[j] = pos
		out.IDs[j] = id
		chir[j] = c
		allTrue = allTrue && c
		pos += gap
	}
	if allTrue {
		out.Chirality = nil
	} else {
		out.Chirality = chir
	}
	return out
}

// Canonicalize returns the canonical representative of cfg's orbit under
// rotation, reflection and translation, together with the Map from cfg's
// frame to the canonical frame.  Identifiers are distinct, so the orbit
// stabiliser is trivial and the representative (and Map) are unique;
// canonicalizing a canonical configuration returns it unchanged with the
// identity Map.
func Canonicalize(cfg engine.Config) (engine.Config, Map, error) {
	v, err := view(&cfg)
	if err != nil {
		return engine.Config{}, Map{}, err
	}
	bestR, bestF := 0, false
	for f := 0; f < 2; f++ {
		for r := 0; r < v.n; r++ {
			if f == 0 && r == 0 {
				continue
			}
			if v.less(r, f == 1, bestR, bestF) {
				bestR, bestF = r, f == 1
			}
		}
	}
	return build(&cfg, &v, bestR, bestF), Map{N: v.n, Rotation: bestR, Reflected: bestF}, nil
}

// Transform returns the member of cfg's orbit whose frame starts at original
// ring index rot (taken modulo n; negative values allowed) and, when
// reflected, traverses the ring in the opposite orientation with every
// chirality bit flipped.  The result's frame is translated so its first agent
// sits at position 0.  Transform(cfg, 0, false) differs from cfg only by that
// translation.
func Transform(cfg engine.Config, rot int, reflected bool) (engine.Config, error) {
	v, err := view(&cfg)
	if err != nil {
		return engine.Config{}, err
	}
	rot = ((rot % v.n) + v.n) % v.n
	return build(&cfg, &v, rot, reflected), nil
}

// encoding layout version; bump when the byte layout below changes so stale
// persisted keys can never alias fresh ones.
const keyVersion = "ringsym-canon-v1"

// Fingerprint hashes the configuration exactly as given (no
// canonicalization): a byte-stable SHA-256 over a fixed binary layout of
// every behaviour-relevant field — model, parity visibility, circumference,
// identifier bound, round bound, positions, identifiers and chirality bits.
// AllowSmall is excluded: it gates validation, not dynamics.  A nil chirality
// slice encodes identically to an explicit all-true slice, matching the
// engine's treatment of the two.
func Fingerprint(cfg engine.Config) string {
	// The layout is hashed in one call over a stack buffer, which holds
	// rings of up to (len(stack)-64)/17 agents without a heap allocation.
	var stack [1024]byte
	n := len(cfg.Positions)
	b := append(stack[:0], keyVersion...)
	parity := int64(0)
	if cfg.HideParity {
		parity = 1
	}
	for _, w := range [...]int64{int64(cfg.Model), parity, cfg.Circ, int64(n), int64(cfg.IDBound), int64(cfg.MaxRounds)} {
		b = binary.BigEndian.AppendUint64(b, uint64(w))
	}
	for _, p := range cfg.Positions {
		b = binary.BigEndian.AppendUint64(b, uint64(p))
	}
	for _, id := range cfg.IDs {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(id)))
	}
	for i := 0; i < n; i++ {
		if cfg.Chirality == nil || cfg.Chirality[i] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// Key canonicalizes cfg and returns the fingerprint of the canonical
// representative: every member of an orbit maps to the same key, and
// configurations in different orbits map to different keys (up to hash
// collision).
func Key(cfg engine.Config) (string, error) {
	ccfg, _, err := Canonicalize(cfg)
	if err != nil {
		return "", err
	}
	return Fingerprint(ccfg), nil
}
