// Package tasktest is the conformance suite of the tasks: a harness that runs
// a task.Spec through the obligations every task must meet to travel safely
// through the campaign runner, the symmetry-canonical cache and the serving
// daemon.
//
// The obligations, per setting of a small model × parity × chirality ×
// common-sense grid:
//
//   - Solvable/Run agreement: a setting the spec declares solvable must run
//     to a verified ok record; an unsolvable setting must be classified
//     without running.
//   - Verify on ground truth: the spec's own Verify must accept every fresh
//     outcome (the runner enforces this on the execution path; the harness
//     additionally exercises it directly).
//   - Cache round-trip: Run(s) == MapOutcome(Run(canon(s))) — the outcome
//     computed on the canonical representative of s's symmetry orbit,
//     translated back through the frame map, must equal the outcome computed
//     on s directly.  This is the correctness contract of the memo cache.
//   - One stage split: every agent reports the same per-stage split, since
//     a record takes its split from agent 0 of whatever frame it runs in.
//   - Stored-form round trip: json.Unmarshal(json.Marshal(out)) equals every
//     fresh outcome, so the disk tier serves exactly what was computed.
//   - End-to-end symmetry: a rotated+reflected framing of a scenario served
//     from the cache must produce a record identical to direct execution.
//   - Byte-stable record JSON: running the same scenario twice must
//     serialise to identical bytes.
package tasktest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ringsym"
	"ringsym/internal/campaign"
	"ringsym/internal/canon"
	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/task"
)

// grid is the conformance sweep: all three models, both parities, both
// chirality regimes, and a common sense of direction (the Table II setting),
// which like campaign.Matrix it pairs with common chirality only.  Sizes are
// small so the full suite stays fast.
type gridPoint struct {
	model       string
	n           int
	mixed       bool
	commonSense bool
}

func grid() []gridPoint {
	var out []gridPoint
	for _, model := range []string{"basic", "lazy", "perceptive"} {
		for _, n := range []int{8, 9} {
			out = append(out,
				gridPoint{model: model, n: n},
				gridPoint{model: model, n: n, mixed: true},
				gridPoint{model: model, n: n, commonSense: true})
		}
	}
	return out
}

// Conformance runs the full obligation suite against the named task.
func Conformance(t *testing.T, name string) {
	t.Helper()
	spec, err := task.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name() != name {
		t.Fatalf("spec looked up as %q reports Name() = %q", name, spec.Name())
	}
	solvableSettings := 0
	for _, g := range grid() {
		sc := campaign.Scenario{
			Task:           campaign.Task(name),
			Model:          g.model,
			N:              g.n,
			IDBound:        4 * g.n,
			MixedChirality: g.mixed,
			CommonSense:    g.commonSense,
			Seed:           1,
		}
		model, err := campaign.ParseModel(g.model)
		if err != nil {
			t.Fatal(err)
		}
		rec := campaign.RunScenarioContext(t.Context(), sc, campaign.Options{})

		if !spec.Solvable(model, g.n%2 == 1) {
			if rec.Status != campaign.StatusUnsolvable {
				t.Errorf("%s: unsolvable setting ran: status %s (%s)", sc.Key(), rec.Status, rec.Error)
			}
			continue
		}
		solvableSettings++
		if rec.Status != campaign.StatusOK || !rec.Verified {
			t.Errorf("%s: status %s verified=%v (%s)", sc.Key(), rec.Status, rec.Verified, rec.Error)
			continue
		}

		byteStableRecord(t, spec, sc, rec)
		cacheRoundTrip(t, spec, sc)
		endToEndSymmetry(t, sc, rec)
	}
	if solvableSettings == 0 {
		t.Errorf("task %q is solvable nowhere on the conformance grid", name)
	}
}

// byteStableRecord re-runs the scenario and requires byte-identical JSON.
func byteStableRecord(t *testing.T, spec task.Spec, sc campaign.Scenario, rec campaign.Record) {
	t.Helper()
	again := campaign.RunScenarioContext(t.Context(), sc, campaign.Options{})
	a, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s: record JSON not byte-stable:\nfirst:  %s\nsecond: %s", sc.Key(), a, b)
	}
}

// cacheRoundTrip checks Run(s) == MapOutcome(Run(canon(s))) at the outcome
// level, plus Verify, one stage split and the stored-form round trip on both
// fresh outcomes.  The generation parameters
// mirror the campaign runner's exactly (same netgen options), so the orbit
// exercised here is the one the cache would key.
func cacheRoundTrip(t *testing.T, spec task.Spec, sc campaign.Scenario) {
	t.Helper()
	model, err := campaign.ParseModel(sc.Model)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := netgen.Generate(netgen.Options{
		N:                   sc.N,
		IDBound:             sc.IDBound,
		Model:               model,
		MixedChirality:      sc.MixedChirality,
		ForceSplitChirality: sc.MixedChirality,
		Seed:                sc.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ccfg, m, err := canon.Canonicalize(gen)
	if err != nil {
		t.Fatal(err)
	}
	p := task.Params{N: sc.N, IDBound: gen.IDBound, MixedChirality: sc.MixedChirality, CommonSense: sc.CommonSense, Seed: sc.Seed}
	direct := runVerified(t, spec, gen, p, sc.Key()+"/direct")
	canonical := runVerified(t, spec, ccfg, p, sc.Key()+"/canonical")
	mapped := spec.MapOutcome(canonical, m)
	if !reflect.DeepEqual(direct, mapped) {
		t.Errorf("%s: cache round-trip broken (rotation %d, reflected %v):\ndirect: %+v\nmapped: %+v",
			sc.Key(), m.Rotation, m.Reflected, direct, mapped)
	}
}

// runVerified builds the network for a generated configuration exactly as
// the campaign runner does, runs the spec on it and requires its own Verify
// to accept the fresh outcome, every agent to report agent 0's split and the
// outcome to survive its stored form unchanged.
func runVerified(t *testing.T, spec task.Spec, gen engine.Config, p task.Params, label string) task.Outcome {
	t.Helper()
	nw, err := ringsym.NewNetwork(ringsym.Config{
		Model:         gen.Model,
		Circumference: gen.Circ,
		Positions:     gen.Positions,
		IDs:           gen.IDs,
		Chirality:     gen.Chirality,
		IDBound:       gen.IDBound,
		MaxRounds:     gen.MaxRounds,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	out, err := spec.Run(t.Context(), nw, p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := spec.Verify(nw, p, out); err != nil {
		t.Errorf("%s: Verify rejects a fresh outcome: %v", label, err)
	}
	for i, sp := range out.PerAgent {
		if sp != out.PerAgent[0] {
			t.Errorf("%s: agent %d reports split %+v, agent 0 %+v", label, i, sp, out.PerAgent[0])
		}
	}
	stored, err := json.Marshal(out)
	if err != nil {
		t.Errorf("%s: outcome has no stored form: %v", label, err)
		return out
	}
	var back task.Outcome
	if err := json.Unmarshal(stored, &back); err != nil || !reflect.DeepEqual(back, out) {
		t.Errorf("%s: stored form %s decodes to %+v (%v), want %+v", label, stored, back, err, out)
	}
	return out
}

// endToEndSymmetry runs a rotated+reflected framing of the scenario both
// directly and through a cache primed with the untransformed framing; the
// records must agree on every field except the cache annotation.
func endToEndSymmetry(t *testing.T, sc campaign.Scenario, _ campaign.Record) {
	t.Helper()
	framed := sc
	framed.Phase, framed.Reflect = 3, true
	plain := campaign.RunScenarioContext(t.Context(), framed, campaign.Options{})
	cache := campaign.NewCache(0)
	prime := campaign.RunScenarioContext(t.Context(), sc, campaign.Options{Cache: cache})
	if prime.Cache != "miss" {
		t.Errorf("%s: priming run annotated %q, want miss", sc.Key(), prime.Cache)
	}
	cached := campaign.RunScenarioContext(t.Context(), framed, campaign.Options{Cache: cache})
	if cached.Cache != "hit" {
		t.Errorf("%s: symmetric framing annotated %q, want hit", framed.Key(), cached.Cache)
	}
	cached.Cache = ""
	plain.Wall, cached.Wall = 0, 0
	if !reflect.DeepEqual(plain, cached) {
		t.Errorf("%s: cached symmetric record differs from direct execution:\ndirect: %+v\ncached: %+v",
			framed.Key(), plain, cached)
	}
}
