package engine

import "ringsym/internal/obs"

// Process-wide execution totals of the round runtimes, held as obs-registered
// counters so serving layers get them in the Prometheus exposition for free
// and /metrics JSON keeps its snapshot shape via CounterSnapshot.  Rounds
// counts synchronised rounds executed on the analytic engine; leap batches
// count crossings — one crossing executes one or more rounds, so
// rounds/crossings is the mean leap length and the direct measure of how much
// the batched submission API is collapsing crossings.  The hot-path
// cost is unchanged: an obs.Counter add is the same single atomic add as the
// bespoke atomics these replaced.
var (
	ctrRounds    = obs.NewCounter("ringsym_engine_rounds_total", "Synchronised rounds executed on the analytic engine.")
	ctrCrossings = obs.NewCounter("ringsym_engine_leap_batches_total", "Crossings (leap batches) that executed those rounds.")
)

// leapSampleMask samples engine.leap events to one per 1024
// crossings: the crossing rate reaches millions per second, and per-crossing
// events would only be dropped by every subscriber's bounded ring anyway.
// Each sampled event carries the cumulative totals, so consumers recover
// exact rates from any two samples.
const leapSampleMask = 1<<10 - 1

// The executors note a crossing with
//
//	if c := ctrCrossings.Add(1); c&leapSampleMask == 0 {
//	    emitLeapSample(c)
//	}
//
// open-coded at the call sites rather than wrapped in a helper: the crossing
// counter sits on the crossing hot path, the pre-telemetry code was an inlined
// atomic add, and a helper carrying the add, the mask test and a call does
// not fit the compiler's inlining budget.  Everything beyond the mask test —
// including the bus check, needed just once per 1024 crossings — lives in the
// cold emitLeapSample.

// emitLeapSample publishes one sampled engine.leap event with the cumulative
// totals (a no-op on a quiet bus).
func emitLeapSample(crossings uint64) {
	if !obs.On() {
		return
	}
	obs.Emit(obs.Event{
		Type:      obs.EngineLeap,
		Level:     obs.LevelDebug,
		Rounds:    int64(ctrRounds.Load()),
		Crossings: int64(crossings),
	})
}

// Counters is a snapshot of the process-wide execution totals.
type Counters struct {
	// Rounds is the total number of synchronised rounds executed.
	Rounds uint64 `json:"rounds"`
	// LeapBatches is the total number of crossings (leap batches)
	// that executed those rounds.
	LeapBatches uint64 `json:"leap_batches"`
	// MeanRoundsPerCrossing is Rounds / LeapBatches (0 when nothing ran).
	MeanRoundsPerCrossing float64 `json:"mean_rounds_per_crossing"`
}

// CounterSnapshot returns the current process-wide execution totals.
func CounterSnapshot() Counters {
	// Executors add to ctrRounds before ctrCrossings, so loading crossings
	// first keeps Rounds >= LeapBatches in the snapshot even when crossings
	// land between the two loads.
	c := Counters{LeapBatches: ctrCrossings.Load(), Rounds: ctrRounds.Load()}
	if c.LeapBatches > 0 {
		c.MeanRoundsPerCrossing = float64(c.Rounds) / float64(c.LeapBatches)
	}
	return c
}
