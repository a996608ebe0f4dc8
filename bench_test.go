package ringsym_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/eval"
	"ringsym/internal/netgen"
	"ringsym/internal/rcomm"
	"ringsym/internal/ring"
)

// The benchmarks below regenerate the paper's evaluation artefacts: one
// benchmark per row of Table I and Table II, one per reduction figure
// (Figures 1 and 2), one for the RingDist machinery of Figure 3 and one for
// the distinguisher sizes of Section IV.  Each reports the measured number of
// rounds per problem as benchmark metrics, next to the wall-clock cost of the
// simulation itself.  cmd/benchtables prints the same data as readable
// tables, and EXPERIMENTS.md records a reference run.

var benchSizes = []int{16, 32, 64, 128}

func benchSetting(b *testing.B, s eval.Setting) {
	for _, rawN := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", rawN), func(b *testing.B) {
			var nm, da, le, ld int
			for i := 0; i < b.N; i++ {
				n := rawN
				if s.OddN {
					n++
				}
				idBound := 4 * n
				var err error
				nm, da, le, err = eval.MeasureCoordination(b.Context(), s, n, idBound, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				total, _, _, solvable, err := eval.MeasureLocationDiscovery(b.Context(), s, n, idBound, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if solvable {
					ld = total
				}
			}
			b.ReportMetric(float64(nm), "nontrivial-rounds")
			b.ReportMetric(float64(da), "diragree-rounds")
			b.ReportMetric(float64(le), "leader-rounds")
			b.ReportMetric(float64(ld), "locdiscovery-rounds")
		})
	}
}

// BenchmarkTable1OddN regenerates Table I, row "odd n".
func BenchmarkTable1OddN(b *testing.B) {
	benchSetting(b, eval.Setting{Name: "odd n", Model: ring.Basic, OddN: true})
}

// BenchmarkTable1BasicEven regenerates Table I, row "basic model, even n".
func BenchmarkTable1BasicEven(b *testing.B) {
	benchSetting(b, eval.Setting{Name: "basic model, even n", Model: ring.Basic})
}

// BenchmarkTable1LazyEven regenerates Table I, row "lazy model, even n".
func BenchmarkTable1LazyEven(b *testing.B) {
	benchSetting(b, eval.Setting{Name: "lazy model, even n", Model: ring.Lazy})
}

// BenchmarkTable1PerceptiveEven regenerates Table I, row "perceptive model,
// even n".
func BenchmarkTable1PerceptiveEven(b *testing.B) {
	benchSetting(b, eval.Setting{Name: "perceptive model, even n", Model: ring.Perceptive})
}

// BenchmarkTable2 regenerates Table II (common sense of direction), one
// sub-benchmark per row.
func BenchmarkTable2(b *testing.B) {
	for _, s := range eval.Table2Settings() {
		b.Run(s.Name, func(b *testing.B) {
			benchSetting(b, s)
		})
	}
}

// BenchmarkFigure1Reductions measures the reduction arrows of Figure 1
// (odd n / lazy / perceptive settings).
func BenchmarkFigure1Reductions(b *testing.B) {
	var rs []eval.Reduction
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = eval.MeasureReductions(context.Background(), eval.Setting{Model: ring.Lazy}, 32, 128, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rs {
		b.ReportMetric(float64(r.Rounds), fmt.Sprintf("%s->%s-rounds", shortProblem(r.From), shortProblem(r.To)))
	}
}

// BenchmarkFigure2Reductions measures the reduction arrows of Figure 2 (basic
// model, even n).
func BenchmarkFigure2Reductions(b *testing.B) {
	var rs []eval.Reduction
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = eval.MeasureReductions(context.Background(), eval.Setting{Model: ring.Basic}, 32, 128, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rs {
		b.ReportMetric(float64(r.Rounds), fmt.Sprintf("%s->%s-rounds", shortProblem(r.From), shortProblem(r.To)))
	}
}

func shortProblem(p eval.Problem) string {
	switch p {
	case eval.LeaderElection:
		return "LE"
	case eval.NontrivialMove:
		return "NM"
	case eval.DirectionAgreement:
		return "DA"
	default:
		return "LD"
	}
}

// BenchmarkFigure3RingDist measures the cost of the ring-distance discovery
// stage (Algorithm 5, illustrated by Figure 3) across sizes.
func BenchmarkFigure3RingDist(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				samples, err := eval.MeasureRingDist(context.Background(), []int{n}, 4, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				rounds = samples[0].Rounds
			}
			b.ReportMetric(float64(rounds), "ringdist-rounds")
		})
	}
}

// BenchmarkDistinguisherSize measures the minimal (N,n)-distinguisher
// prefixes of the pseudo-random schedule (Section IV, Corollary 29).  The
// verification is exhaustive, so the universes are small.
func BenchmarkDistinguisherSize(b *testing.B) {
	pairs := [][2]int{{8, 2}, {12, 2}, {16, 2}, {10, 3}}
	var samples []eval.DistinguisherSample
	for i := 0; i < b.N; i++ {
		var err error
		samples, err = eval.MeasureDistinguishers(pairs, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range samples {
		b.ReportMetric(float64(s.MinPrefix), fmt.Sprintf("N%d-n%d-prefix", s.Universe, s.SubsetSize))
	}
}

// runSteps drives one machine per agent on nw: step is the agent's protocol
// in continuation-passing form, handing its result to k.
func runSteps[T any](nw *engine.Network, step func(a *engine.Agent, k func(T) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)) (*engine.Result[T], error) {
	return engine.Run(context.Background(), nw, func(a *engine.Agent) *engine.Proto[T] {
		return engine.NewProto(func(done func(T, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return step(a, func(v T) (engine.Yield, engine.Cont) { return done(v, nil) })
		})
	})
}

// BenchmarkLowerBounds compares measured location-discovery round counts with
// the Lemma 6 lower bounds (n−1 for basic/lazy, n/2 for perceptive).
func BenchmarkLowerBounds(b *testing.B) {
	for _, tc := range []struct {
		name  string
		model ring.Model
		n     int
	}{
		{"lazy", ring.Lazy, 64},
		{"perceptive", ring.Perceptive, 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := eval.Setting{Model: tc.model}
			var total int
			for i := 0; i < b.N; i++ {
				t, _, _, _, err := eval.MeasureLocationDiscovery(b.Context(), s, tc.n, 4*tc.n, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				total = t
			}
			b.ReportMetric(float64(total), "measured-rounds")
			lower := tc.n - 1
			if tc.model == ring.Perceptive {
				lower = tc.n / 2
			}
			b.ReportMetric(float64(lower), "lemma6-lower-bound")
		})
	}
}

// BenchmarkAblationDissemination compares the two dissemination strategies of
// the communication layer (DESIGN.md ablation): the generic O(p·d) flooding
// of Corollary 33 versus the pipelined O(p+d) sparse dissemination of
// Corollary 34, measured in rounds for the same task.
func BenchmarkAblationDissemination(b *testing.B) {
	run := func(b *testing.B, sparse bool) {
		const payloadBits, distance = 10, 8
		var rounds int
		for i := 0; i < b.N; i++ {
			cfg := netgen.MustGenerate(netgen.Options{N: 24, Seed: int64(i), Model: ring.Perceptive, MixedChirality: true, ForceSplitChirality: true})
			nw, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := runSteps(nw, func(a *engine.Agent, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				return rcomm.EstablishStep(core.NewFrame(a), func(link *rcomm.Link) (engine.Yield, engine.Cont) {
					before := a.RoundsUsed()
					isSource := a.ID()%8 == 1
					end := func(rcomm.SideInfo, rcomm.SideInfo) (engine.Yield, engine.Cont) { return k(a.RoundsUsed() - before) }
					if sparse {
						return link.DisseminateSparseStep(isSource, uint64(a.ID()), payloadBits, distance, end)
					}
					return link.DisseminateStep(isSource, uint64(a.ID()), payloadBits, distance, end)
				})
			})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Outputs[0]
		}
		b.ReportMetric(float64(rounds), "dissemination-rounds")
	}
	b.Run("generic-corollary33", func(b *testing.B) { run(b, false) })
	b.Run("sparse-corollary34", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationNontrivialDetection compares the weak (rotation != 0, one
// round per candidate) and strong (Lemma 2 classification, two rounds per
// candidate) nontrivial-move detection used with the Theorem 27 schedule.
func BenchmarkAblationNontrivialDetection(b *testing.B) {
	run := func(b *testing.B, weak bool) {
		var rounds int
		for i := 0; i < b.N; i++ {
			cfg := netgen.MustGenerate(netgen.Options{N: 32, Seed: int64(i), Model: ring.Basic, MixedChirality: true, ForceSplitChirality: true})
			nw, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := runSteps(nw, func(a *engine.Agent, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
				f := core.NewFrame(a)
				if weak {
					return core.WeakNontrivialMoveEvenStep(f, int64(i), func(ring.Direction, int) (engine.Yield, engine.Cont) { return k(f.RoundsUsed()) })
				}
				return core.NontrivialMoveEvenStep(f, int64(i), func(ring.Direction) (engine.Yield, engine.Cont) { return k(f.RoundsUsed()) })
			})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Outputs[0]
		}
		b.ReportMetric(float64(rounds), "rounds")
	}
	b.Run("weak", func(b *testing.B) { run(b, true) })
	b.Run("strong", func(b *testing.B) { run(b, false) })
}

// BenchmarkCampaignThroughput measures the scenario throughput of the
// campaign runner (scenarios/sec) on a fixed sweep spanning all models, both
// parities and both chirality regimes, once sequentially (one worker) and
// once on the full GOMAXPROCS pool; the parallel variant demonstrates the
// multi-core speedup of the worker pool over sequential execution.
func BenchmarkCampaignThroughput(b *testing.B) {
	scenarios, err := campaign.Matrix{Sizes: []int{8, 12}, Seeds: []int64{1, 2, 3}}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			recs, err := campaign.RunAll(context.Background(), scenarios, campaign.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Status == campaign.StatusFailed {
					b.Fatalf("%s: %s", rec.Key(), rec.Error)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(scenarios))/b.Elapsed().Seconds(), "scenarios/sec")
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })

	// Symmetric-heavy variant: every setting appears in 8 outcome-equivalent
	// framings (4 phases × 2 reflections).  The cached run canonicalizes each
	// scenario and computes one representative per orbit (internal/canon +
	// internal/memo), so the cached-vs-uncached records/sec ratio is the
	// symmetry-dedup speedup recorded in EXPERIMENTS.md.
	symmetric, err := campaign.Matrix{
		Sizes:       []int{8, 12},
		Seeds:       []int64{1, 2, 3},
		Phases:      []int{0, 1, 2, 3},
		Reflections: []bool{false, true},
	}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	runSym := func(b *testing.B, cached bool) {
		for i := 0; i < b.N; i++ {
			opts := campaign.Options{}
			if cached {
				// A fresh cache per iteration: the measured ratio is the
				// within-sweep dedup win, not a warm-cache artifact.
				opts.Cache = campaign.NewCache(0)
			}
			recs, err := campaign.RunAll(context.Background(), symmetric, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Status == campaign.StatusFailed {
					b.Fatalf("%s: %s", rec.Key(), rec.Error)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(symmetric))/b.Elapsed().Seconds(), "records/sec")
	}
	b.Run("symmetric-uncached", func(b *testing.B) { runSym(b, false) })
	b.Run("symmetric-cached", func(b *testing.B) { runSym(b, true) })
}

// BenchmarkEngineRound measures the raw cost of a single synchronised round
// (one scheduler crossing plus the analytic collision engine), reporting
// rounds/sec: every agent plays one round per yield, alternating its
// direction, so no two consecutive rounds can leap.
func BenchmarkEngineRound(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := netgen.MustGenerate(netgen.Options{N: n, Seed: 1, Model: ring.Perceptive})
			cfg.MaxRounds = math.MaxInt
			nw, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			rounds := b.N
			_, err = engine.Run(context.Background(), nw, func(a *engine.Agent) *engine.Proto[int] {
				return engine.NewProto(func(done func(int, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
					dir := ring.Anticlockwise
					if a.ID()%2 == 0 {
						dir = ring.Clockwise
					}
					played := 0
					var loop engine.Cont
					loop = func(engine.Resume) (engine.Yield, engine.Cont) {
						if played == rounds {
							return done(0, nil)
						}
						played++
						dir = dir.Opposite()
						return a.YieldRound(dir), loop
					}
					return loop(engine.Resume{})
				})
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkEngineLeap measures leap execution on the constant-direction sweep
// workload: every agent keeps a fixed direction (both directions present) and
// yields it in batches of 512 rounds via YieldRoundN, so each crossing
// executes a whole closed-form stretch.  The per-round baseline for the
// leap-vs-single speedup recorded in EXPERIMENTS.md is
// BenchmarkEngineLeapSingle, the identical workload yielded one round at a
// time.
func BenchmarkEngineLeap(b *testing.B) {
	benchEngineSweep(b, 512)
}

// BenchmarkEngineLeapSingle is the per-round baseline of BenchmarkEngineLeap.
func BenchmarkEngineLeapSingle(b *testing.B) {
	benchEngineSweep(b, 1)
}

// benchEngineSweep drives the shared constant-direction sweep workload
// (eval.EngineSweepProtocol, the same workload benchtables -engine measures)
// with the given batch size (1 = the per-round path) and reports rounds/sec.
func benchEngineSweep(b *testing.B, batch int) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, err := eval.EngineSweepNetwork(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := engine.Run(context.Background(), nw, eval.EngineSweepProtocol(b.N, batch)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}
