package canon_test

import (
	"reflect"
	"testing"

	"ringsym/internal/canon"
	"ringsym/internal/engine"
	"ringsym/internal/netgen"
)

// FuzzCanonOrbit checks canonicalization on two kinds of input.
//
// A netgen configuration (n 5–16, common or mixed chirality, any seed) and
// any rotation and reflection of it must share the key and the canonical
// configuration, and each returned Map must round-trip indices and carry
// every identifier to its canonical index.
//
// Raw bytes read as a possibly invalid configuration must make Canonicalize
// return an error exactly when the configuration is malformed, never panic;
// an accepted one canonicalizes to a fixed point of Canonicalize.
func FuzzCanonOrbit(f *testing.F) {
	f.Fuzz(func(t *testing.T, nSel uint8, mixed bool, seed int64, rot int, refl bool, raw []byte) {
		n := 5 + int(nSel)%12
		cfg := mustGen(t, netgen.Options{N: n, Seed: seed, MixedChirality: mixed, ForceSplitChirality: mixed})
		member := mustTransform(t, cfg, rot, refl)
		wantCfg, wantMap, err := canon.Canonicalize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotCfg, gotMap, err := canon.Canonicalize(member)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotCfg, wantCfg) {
			t.Fatalf("n=%d rot=%d refl=%v: canonical form differs\n got %+v\nwant %+v", n, rot, refl, gotCfg, wantCfg)
		}
		wantKey, err := canon.Key(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := canon.Key(member); err != nil || got != wantKey {
			t.Fatalf("n=%d rot=%d refl=%v: key %q (%v), want %q", n, rot, refl, got, err, wantKey)
		}
		for _, c := range []struct {
			cfg engine.Config
			m   canon.Map
		}{{cfg, wantMap}, {member, gotMap}} {
			for i := 0; i < n; i++ {
				if c.m.OrigIndex(c.m.CanonIndex(i)) != i || c.m.CanonIndex(c.m.OrigIndex(i)) != i {
					t.Fatalf("map %+v does not round-trip index %d", c.m, i)
				}
				if c.cfg.IDs[i] != wantCfg.IDs[c.m.CanonIndex(i)] {
					t.Fatalf("map %+v sends the identifier at index %d elsewhere", c.m, i)
				}
			}
		}

		bad := rawConfig(raw)
		got, m, err := canon.Canonicalize(bad)
		if malformed(bad) != (err != nil) {
			t.Fatalf("Canonicalize(%+v) error %v, malformed %v", bad, err, malformed(bad))
		}
		if err != nil {
			return
		}
		again, m2, err := canon.Canonicalize(got)
		if err != nil || !reflect.DeepEqual(again, got) || m2 != (canon.Map{N: m.N}) {
			t.Fatalf("canonical form %+v is not a fixed point: %+v %+v %v", got, again, m2, err)
		}
	})
}

// rawConfig reads a configuration from fuzz bytes without validating it: a
// flags byte, a circumference, then per agent a position, an identifier and
// a chirality bit.  Flag bits drop the chirality slice, or one agent's
// identifier or chirality bit.
func rawConfig(b []byte) engine.Config {
	next := func() int64 {
		if len(b) == 0 {
			return 0
		}
		v := int64(int8(b[0]))
		b = b[1:]
		return v
	}
	flags := next()
	cfg := engine.Config{Circ: next(), AllowSmall: true}
	for len(b) > 0 {
		cfg.Positions = append(cfg.Positions, next())
		cfg.IDs = append(cfg.IDs, int(next()))
		cfg.Chirality = append(cfg.Chirality, next()&1 == 1)
	}
	if flags&1 != 0 {
		cfg.Chirality = nil
	}
	if flags&2 != 0 && len(cfg.IDs) > 0 {
		cfg.IDs = cfg.IDs[1:]
	}
	if flags&4 != 0 && len(cfg.Chirality) > 0 {
		cfg.Chirality = cfg.Chirality[1:]
	}
	return cfg
}

// malformed reports whether cfg is outside what Canonicalize accepts: fewer
// than two agents, a non-positive circumference, a position outside
// [0, Circ) or out of clockwise order, or an identifier or (non-nil)
// chirality slice of the wrong length.
func malformed(cfg engine.Config) bool {
	n := len(cfg.Positions)
	if n < 2 || cfg.Circ <= 0 || len(cfg.IDs) != n || (cfg.Chirality != nil && len(cfg.Chirality) != n) {
		return true
	}
	for i, p := range cfg.Positions {
		if p < 0 || p >= cfg.Circ || (i > 0 && p <= cfg.Positions[i-1]) {
			return true
		}
	}
	return false
}
