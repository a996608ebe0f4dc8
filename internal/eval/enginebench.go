package eval

import (
	"context"
	"math"
	"time"

	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// EngineSweepProtocol is the agent protocol of the constant-direction sweep
// workload shared by the engine throughput benchmarks (BenchmarkEngineLeap /
// BenchmarkEngineLeapSingle in the repository root) and the benchtables
// -engine mode: each agent keeps a direction fixed by the parity of its
// identifier (both directions present) for the given number of rounds,
// yielded in batches of batch rounds.  batch = 1 is the per-round path;
// larger batches use leap execution.  Each agent's output is the length of
// its last batch's trace.  Keeping the single copy here is what entitles
// EXPERIMENTS.md to claim the benchmark pair and the BENCH_engine.json table
// measure the same workload.
func EngineSweepProtocol(rounds, batch int) func(a *engine.Agent) *engine.Proto[int] {
	return func(a *engine.Agent) *engine.Proto[int] {
		return engine.NewProto(func(done func(int, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			dir := ring.Clockwise
			if a.ID()%2 == 0 {
				dir = ring.Anticlockwise
			}
			spent := 0
			var next engine.Cont
			next = func(in engine.Resume) (engine.Yield, engine.Cont) {
				if spent == rounds {
					return done(len(in.Obs), nil)
				}
				k := min(batch, rounds-spent)
				spent += k
				return a.YieldRoundN(dir, k), next
			}
			return next(engine.Resume{})
		})
	}
}

// EngineSweepNetwork builds the uncapped perceptive network the engine
// throughput workload runs on.
func EngineSweepNetwork(n int, seed int64) (*engine.Network, error) {
	cfg := netgen.MustGenerate(netgen.Options{N: n, Seed: seed, Model: ring.Perceptive})
	cfg.MaxRounds = math.MaxInt
	return engine.New(cfg)
}

// MeasureEngineSweep runs the constant-direction sweep workload and returns
// the wall-clock rounds/sec.
func MeasureEngineSweep(ctx context.Context, n int, seed int64, rounds, batch int) (float64, error) {
	nw, err := EngineSweepNetwork(n, seed)
	if err != nil {
		return 0, err
	}
	//ringvet:allow determinism this is the benchmark path: rounds/sec is a wall-clock measurement by definition
	start := time.Now()
	if _, err := engine.Run(ctx, nw, EngineSweepProtocol(rounds, batch)); err != nil {
		return 0, err
	}
	//ringvet:allow determinism this is the benchmark path: rounds/sec is a wall-clock measurement by definition
	return float64(rounds) / time.Since(start).Seconds(), nil
}
