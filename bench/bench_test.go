package main

import (
	"testing"
	"time"
)

// TestWorkloadsSmoke runs a short slice of every workload, untraced and
// traced, through the same set-up and checks the benchmark itself uses.
// Set-up fails on a wrong artefact (the golden digest for both grids) and
// pins each sweep's per-pass counts; the slices then count every failed
// check, the traced ones including the tier-kind and (outside -race builds)
// stage-sum rules.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := t.Context()
	e, err := newEnv(ctx, config{seed: 1, golden: "../testdata/golden/SHA256SUMS"}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The counts each pass must repeat, as stated by the workloads' design:
	// the grid is 12,917 rounds in 5,094 crossings; the symmetric sweep
	// computes its 220 orbits once when cold and reads all 220 from disk
	// when warm.
	want := map[string]map[string]uint64{
		"grid-local": {"rounds": 12917, "crossings": 5094, "records": 216},
		"grid-fleet": {"records": 216},
		"sym-cold":   {"computes": 220, "puts": 220, "disk_hits": 0, "records": 1440},
		"sym-warm":   {"computes": 0, "disk_hits": 220, "puts": 0, "rounds": 0, "records": 1440},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			in, err := setUp(ctx, name, e)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			got := in.counts()
			for k, v := range want[name] {
				if got[k] != v {
					t.Errorf("%s = %d per pass, want %d (all counts %v)", k, got[k], v, got)
				}
			}

			// measure and trace always run one operation, which is one
			// pass for the sweeps; serve-mixed needs checkEvery requests
			// before one is recomputed.
			slice := time.Millisecond
			if name == "serve-mixed" {
				slice = 300 * time.Millisecond
			}
			acc := &e2eAcc{}
			if _, _, err := in.measure(ctx, time.Now().Add(slice), acc); err != nil {
				t.Fatal(err)
			}
			if acc.attempted == 0 || acc.failed > 0 || len(acc.errs) > 0 {
				t.Errorf("untraced: attempted %d, failed %d: %v", acc.attempted, acc.failed, acc.errs)
			}
			if name == "serve-mixed" && acc.attempted < checkEvery {
				t.Errorf("only %d requests, fewer than one reference check", acc.attempted)
			}

			tr := newTraceAcc(false)
			// Tens of pass pairs, so the stage-sum rule checks a median
			// that a slow moment of a shared host does not move.
			if err := in.trace(ctx, time.Now().Add(time.Second), tr); err != nil {
				t.Fatal(err)
			}
			if raceEnabled {
				tr.checkStageSum = false
			}
			m := tr.metrics()
			if tr.attempted == 0 || tr.failed > 0 || len(tr.errs) > 0 {
				t.Errorf("traced: attempted %d, failed %d: %v", tr.attempted, tr.failed, tr.errs)
			}
			if len(m) != len(layers) {
				t.Errorf("traced run reported %d per-layer metrics, want %d", len(m), len(layers))
			}
			if m["campaign.encode_us"].Value <= 0 || m["netgen.generate_us"].Value <= 0 {
				t.Errorf("replay recorded no generate or encode spans: %v", m)
			}
		})
	}
}
