package eval

import (
	"math"

	"ringsym/internal/engine"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
)

// EngineSweepProtocol is the agent protocol of the constant-direction sweep
// workload behind the engine throughput benchmarks (BenchmarkEngineLeap /
// BenchmarkEngineLeapSingle in the repository root): each agent keeps a
// direction fixed by the parity of its identifier (both directions present)
// for the given number of rounds, yielded in batches of batch rounds.
// batch = 1 is the per-round path; larger batches use leap execution.  Each
// agent's output is the length of its last batch's trace.  The benchmark
// pair differs only in batch, so their ratio is the leap speedup
// EXPERIMENTS.md records.
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
