// Package netgen generates ring-network configurations for tests, examples
// and the benchmark harness.  All generation is deterministic for a fixed
// seed.
package netgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// ErrBadOptions is returned (wrapped) when the options cannot describe a
// valid configuration.
var ErrBadOptions = errors.New("netgen: bad options")

// Options controls configuration generation.
type Options struct {
	// N is the number of agents (must be at least 2; the paper needs > 4).
	N int
	// IDBound is N of the paper (the bound on identifiers); defaults to
	// max(16, 4*N) when zero.
	IDBound int
	// Circ is the circumference in ticks; defaults to 1<<20 when zero.
	Circ int64
	// Model is the movement model; defaults to ring.Perceptive when zero.
	Model ring.Model
	// MixedChirality gives every agent an independent random sense of
	// direction; otherwise all agents share the global clockwise.
	MixedChirality bool
	// ForceSplitChirality guarantees that, when MixedChirality is set, both
	// orientations actually occur (n >= 2).
	ForceSplitChirality bool
	// EqualSpacing places agents equidistantly instead of at random
	// positions (useful for worst-case symmetry tests).
	EqualSpacing bool
	// Seed drives the deterministic pseudo-random generation.
	Seed int64
	// MaxRounds is forwarded to the engine configuration.
	MaxRounds int
	// AllowSmall permits n <= 4.
	AllowSmall bool
}

func (o *Options) fillDefaults() error {
	if o.N < 2 {
		return fmt.Errorf("%w: need at least 2 agents, got %d", ErrBadOptions, o.N)
	}
	if o.IDBound == 0 {
		o.IDBound = 4 * o.N
		if o.IDBound < 16 {
			o.IDBound = 16
		}
	}
	if o.IDBound < o.N {
		return fmt.Errorf("%w: IDBound %d < N %d", ErrBadOptions, o.IDBound, o.N)
	}
	if o.Circ < 0 {
		return fmt.Errorf("%w: negative circumference %d", ErrBadOptions, o.Circ)
	}
	if o.Circ == 0 {
		o.Circ = 1 << 20
	}
	if o.Circ%2 != 0 {
		o.Circ++
	}
	if o.EqualSpacing {
		// Equal spacing places the agents at multiples of an even step of the
		// explicit circumference; an undersized circle would make the step
		// collapse to zero and duplicate every position, so it is an error
		// rather than a silently adjusted value.
		if step := equalStep(o.Circ, o.N); step < 2 {
			return fmt.Errorf("%w: circumference %d cannot hold %d equally spaced agents on even ticks (need Circ >= 2*N)",
				ErrBadOptions, o.Circ, o.N)
		}
	} else if o.Circ < 4*int64(o.N) {
		// Random placement draws distinct even positions; grow an undersized
		// default-ish circle so the draw terminates (documented behaviour).
		o.Circ = 4 * int64(o.N)
	}
	if o.Model == 0 {
		o.Model = ring.Perceptive
	}
	return nil
}

// equalStep returns the even spacing step used by EqualSpacing placement.
func equalStep(circ int64, n int) int64 {
	step := circ / int64(n)
	if step%2 != 0 {
		step--
	}
	return step
}

// Generate builds an engine configuration according to opt.
//
// Identifier assignment is independent of the order in which positions are
// drawn: positions are drawn first and sorted clockwise, and the i-th
// identifier drawn is bound to the i-th ring index of that sorted order —
// never to the i-th raw draw.  The same holds for chirality bits.  This
// pairing is load-bearing for the canonical result cache (internal/canon
// keys, internal/memo): a refactor that re-paired identifiers with draw
// order would silently move every generated configuration into a different
// symmetry orbit and invalidate persisted canonical keys.  The contract —
// including the exact draw sequence (positions, then identifiers, then
// chirality, all from one seed-derived stream) — is pinned by the golden-key
// test TestCanonicalKeyGolden in golden_test.go; a deliberate generation
// change must update those keys and bump canon's key version.
func Generate(opt Options) (engine.Config, error) {
	if err := opt.fillDefaults(); err != nil {
		return engine.Config{}, err
	}
	// Bounded memo, keyed by the filled option set.  Generation is
	// deterministic (one Options value → one Config), so the cache is
	// semantically invisible; it exists because scenario sweeps regenerate the
	// same small grid of configurations over and over, and seeding a
	// math/rand source alone costs more than a whole small-n generation.
	// Copies go in and out, so callers may mutate results freely.
	memoMu.Lock()
	cached, ok := memoed[opt]
	memoMu.Unlock()
	if ok {
		return copyConfig(cached), nil
	}
	cfg := generate(opt)
	memoMu.Lock()
	if memoed == nil {
		memoed = make(map[Options]engine.Config)
	}
	if len(memoed) < memoLimit {
		memoed[opt] = copyConfig(cfg)
	}
	memoMu.Unlock()
	return cfg, nil
}

// memoLimit bounds the generation memo; past it, Generate stops inserting
// (sweeps use far fewer distinct option sets, and a workload that overflows
// the bound degrades to uncached generation, not to unbounded memory).
const memoLimit = 4096

var (
	memoMu sync.Mutex
	memoed map[Options]engine.Config
)

// copyConfig deep-copies the slice-valued fields so memo entries stay
// immutable no matter what callers do with returned configurations.
func copyConfig(cfg engine.Config) engine.Config {
	cfg.Positions = append([]int64(nil), cfg.Positions...)
	cfg.IDs = append([]int(nil), cfg.IDs...)
	if cfg.Chirality != nil {
		cfg.Chirality = append([]bool(nil), cfg.Chirality...)
	}
	return cfg
}

// generate is the uncached generation path; opt must be filled.
func generate(opt Options) engine.Config {
	rng := rand.New(rand.NewSource(opt.Seed))

	positions := positionsFor(rng, opt)
	ids := distinctInts(rng, opt.N, opt.IDBound)
	var chir []bool
	if opt.MixedChirality {
		chir = make([]bool, opt.N)
		for i := range chir {
			chir[i] = rng.Intn(2) == 0
		}
		if opt.ForceSplitChirality {
			chir[0] = true
			chir[1] = false
		}
	}
	return engine.Config{
		Model:      opt.Model,
		Circ:       opt.Circ,
		Positions:  positions,
		IDs:        ids,
		IDBound:    opt.IDBound,
		Chirality:  chir,
		MaxRounds:  opt.MaxRounds,
		AllowSmall: opt.AllowSmall,
	}
}

// MustGenerate is Generate but panics on error; for tests and examples.
func MustGenerate(opt Options) engine.Config {
	cfg, err := Generate(opt)
	if err != nil {
		panic(err)
	}
	return cfg
}

// positionsFor picks n distinct even positions sorted clockwise.
func positionsFor(rng *rand.Rand, opt Options) []int64 {
	n := opt.N
	positions := make([]int64, 0, n)
	if opt.EqualSpacing {
		step := equalStep(opt.Circ, n) // >= 2, validated by fillDefaults
		for i := 0; i < n; i++ {
			positions = append(positions, int64(i)*step)
		}
		return positions
	}
	used := make(map[int64]bool, n)
	for len(positions) < n {
		p := 2 * rng.Int63n(opt.Circ/2)
		if !used[p] {
			used[p] = true
			positions = append(positions, p)
		}
	}
	sortInt64(positions)
	return positions
}

// distinctInts draws n distinct integers from [1, bound].
func distinctInts(rng *rand.Rand, n, bound int) []int {
	out := make([]int, 0, n)
	used := make(map[int]bool, n)
	for len(out) < n {
		v := 1 + rng.Intn(bound)
		if !used[v] {
			used[v] = true
			out = append(out, v)
		}
	}
	return out
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
