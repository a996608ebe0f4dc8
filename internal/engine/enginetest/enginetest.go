// Package enginetest holds helpers for tests that drive protocol steps on an
// engine.Network.
package enginetest

import (
	"context"

	"ringsym/internal/engine"
)

// RunSteps drives one machine per agent on nw under ctx: step is the agent's
// protocol in continuation-passing form, handing its result to k.  Results
// that point into the agents' kept state (engine.Slot) stay as the run left
// them only until the next run starts, so a test reads them before it runs
// again and does not run protocols in parallel.
func RunSteps[T any](ctx context.Context, nw *engine.Network, step func(a *engine.Agent, k func(T) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont)) (*engine.Result[T], error) {
	return engine.Run(ctx, nw, func(a *engine.Agent) *engine.Proto[T] {
		return engine.NewProto(func(done func(T, error) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return step(a, func(v T) (engine.Yield, engine.Cont) { return done(v, nil) })
		})
	})
}
