// Package obs is the structured-event spine of the simulator: a
// dependency-free telemetry core that every layer (engine, memo cache,
// campaign runner, serving daemon) emits typed events into, and that
// consumers (the ringd /v1/events endpoint, the ringfarm top live view, an
// NDJSON file sink) subscribe to without ever being able to slow the
// producers down.
//
// Three properties are load-bearing:
//
//   - The off switch is free.  With no subscribers, On() is one atomic
//     pointer load and every emit site is `if obs.On() { ... }` — no event is
//     even constructed, so the golden artefacts and the benchmarks are
//     untouched by the existence of the telemetry layer.
//   - Publishing never blocks.  Each subscriber owns a buffered channel
//     that Publish sends on without waiting; a full queue drops the event
//     and counts the drop instead of back-pressuring the worker that
//     emitted it.  A stalled /v1/events client therefore cannot wedge the
//     serve pool.
//   - Counters are registered, not bespoke.  Process-wide totals (engine
//     rounds, cache hits, bus drops) live in a metric Registry that renders
//     Prometheus text exposition, so a new counter is one NewCounter call
//     away from /metrics instead of a hand-threaded snapshot field.
//
// Timestamps are monotonic nanoseconds since process start (Now), so rates
// and latencies computed from an event stream are immune to wall-clock
// steps.
package obs

import "time"

// Type classifies an event.  The taxonomy is flat strings ("scenario.finish")
// so filters can match whole types or dotted prefixes ("scenario") without a
// parallel enum table.
type Type string

// The event taxonomy.  Emitters outside this package must use these
// constants; consumers may match on dotted prefixes.
const (
	// Scenario lifecycle, emitted by the campaign runner around every
	// scenario (local sweeps and ringd requests alike).
	ScenarioStart  Type = "scenario.start"
	ScenarioFinish Type = "scenario.finish" // Status ok or unsolvable
	ScenarioError  Type = "scenario.error"  // Status failed; Err holds the cause

	// Campaign lifecycle, emitted by the campaign runner per Run call.
	CampaignStart      Type = "campaign.start"      // Total scenarios
	CampaignCheckpoint Type = "campaign.checkpoint" // Done of Total, every checkpointEvery records
	CampaignFinish     Type = "campaign.finish"

	// Memo-cache service events, one per cache operation (no payload beyond
	// the type — the hot path must not allocate).
	CacheHit   Type = "cache.hit"
	CacheMiss  Type = "cache.miss"
	CacheDedup Type = "cache.dedup"
	CacheEvict Type = "cache.evict"

	// Persistent-store service events (internal/store), one per store
	// operation: disk lookups and segment eviction.  Like the memo events
	// they carry no payload beyond the type — the hot path must not
	// allocate.
	StoreHit   Type = "store.hit"
	StoreMiss  Type = "store.miss"
	StoreEvict Type = "store.evict"

	// Engine execution, sampled (one event per leapSampleEvery crossings)
	// with cumulative totals: per-crossing emission at millions of
	// crossings per second would drown every subscriber.
	EngineLeap Type = "engine.leap"

	// Serving-layer request accounting from ringd.
	ServeRequest Type = "serve.request"
	ServeReject  Type = "serve.reject"

	// Fleet coordination, emitted by internal/fleet: worker liveness and the
	// lease lifecycle of a distributed campaign.  Worker names the worker's
	// base URL; Lo/Hi carry the lease's scenario-index range [Lo, Hi).
	FleetWorkerUp        Type = "fleet.worker.up"
	FleetWorkerDown      Type = "fleet.worker.down"      // Err holds the cause
	FleetLeaseGrant      Type = "fleet.lease.grant"      // range handed to Worker
	FleetLeaseDone       Type = "fleet.lease.done"       // range fully streamed back
	FleetLeaseSteal      Type = "fleet.lease.steal"      // range split off Worker (the victim)
	FleetLeaseFail       Type = "fleet.lease.fail"       // attempt failed; range will be re-leased
	FleetLeaseQuarantine Type = "fleet.lease.quarantine" // range abandoned after repeated failures
)

// Level grades an event for client-side filtering.
type Level int8

// Levels, ordered: a filter with MinLevel Info suppresses Debug events.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "debug"
	}
}

// MarshalText renders the level as its name in JSON event streams.
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses a level name; unknown names fail.
func (l *Level) UnmarshalText(b []byte) error {
	v, err := ParseLevel(string(b))
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// ParseLevel maps a level name back to its Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return 0, errBadLevel(s)
}

type errBadLevel string

func (e errBadLevel) Error() string {
	return "obs: unknown level " + string(e) + ` (want debug, info, warn or error)`
}

// Event is one telemetry record.  It is a flat struct of fixed fields — no
// maps, no interfaces — so emitting one is a stack copy, the fan-out bus can
// queue them by value, and zero-valued fields vanish from the JSON.  Emitters
// fill only the fields their type defines (see the taxonomy above); Nanos is
// stamped by Publish when left zero.
type Event struct {
	// Nanos is the monotonic timestamp: nanoseconds since process start.
	Nanos int64 `json:"nanos"`
	Type  Type  `json:"type"`
	Level Level `json:"level"`

	// Scenario identity (scenario.* events).
	Task  string `json:"task,omitempty"`
	Model string `json:"model,omitempty"`
	N     int    `json:"n,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	Index int    `json:"index,omitempty"`

	// Scenario outcome (scenario.finish / scenario.error).
	Status     string `json:"status,omitempty"`
	Cache      string `json:"cache,omitempty"`
	Rounds     int64  `json:"rounds,omitempty"`
	WallMicros int64  `json:"wall_us,omitempty"`

	// Campaign progress (campaign.*).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`

	// Engine totals (engine.leap: cumulative rounds and crossings).
	Crossings int64 `json:"crossings,omitempty"`

	// Serving (serve.*).
	Endpoint string `json:"endpoint,omitempty"`

	// Fleet coordination (fleet.*): the worker's base URL and the lease's
	// scenario-index range [Lo, Hi).
	Worker string `json:"worker,omitempty"`
	Lo     int    `json:"lo,omitempty"`
	Hi     int    `json:"hi,omitempty"`

	// Err is the failure cause on error-grade events.
	Err string `json:"error,omitempty"`
}

var processStart = time.Now()

// Now returns the monotonic event timestamp: nanoseconds since process
// start.  time.Since reads the runtime's monotonic clock, so the value never
// jumps with wall-clock adjustments.
func Now() int64 { return int64(time.Since(processStart)) }
