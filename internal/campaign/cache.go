package campaign

import (
	"fmt"
	"strconv"

	"ringsym/internal/memo"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// Cache memoises scenario outcomes under their canonical symmetry key: two
// scenarios whose generated networks are rotations, reflections or frame
// translations of each other (and that share the task, the common-sense
// promise and the protocol-schedule seed) resolve to the same key, so only
// the first one is executed and the other is answered from the cache with its
// outcome translated back through the frame map (the task spec's MapOutcome).
// Concurrent workers that race on the same key are collapsed by singleflight,
// and a scenario nobody is waiting for any more is cancelled within one
// engine round.
//
// A Cache is safe for concurrent use and may be shared across sweeps and, in
// the serving daemon, across requests.
type Cache struct {
	c  *memo.Cache[task.Outcome]
	st *store.Store // the tier AttachTier attached, or nil
}

// NewCache returns a cache bounded to roughly capacity outcomes (<= 0 selects
// the memo default).  One cached outcome is a few integers and one stage
// split whatever the ring size, so resident memory is O(capacity).
func NewCache(capacity int) *Cache {
	return &Cache{c: memo.New[task.Outcome](capacity)}
}

// Stats returns a snapshot of the hit/miss/dedup/eviction counters.
func (c *Cache) Stats() memo.Stats { return c.c.Stats() }

// ParseCacheFlag maps a CLI -cache flag value to a cache: "off" disables it
// (nil), "on" enables it with the default bound, and a positive integer sets
// the capacity.  Shared by cmd/ringfarm and cmd/ringd so the flag semantics
// cannot diverge between the two.
func ParseCacheFlag(s string) (*Cache, error) {
	switch s {
	case "off":
		return nil, nil
	case "on":
		return NewCache(0), nil
	}
	capacity, err := strconv.Atoi(s)
	if err != nil || capacity <= 0 {
		return nil, fmt.Errorf("campaign: invalid cache setting %q (want on, off, or a positive capacity)", s)
	}
	return NewCache(capacity), nil
}

// cacheKey composes the canonical configuration fingerprint with the
// task-level inputs that select the protocol pipeline and its pseudo-random
// schedules.  Everything else that influences the outcome (model, sizes,
// identifiers, chirality, circumference, round bound) is already part of the
// fingerprint.
func cacheKey(fingerprint string, sc Scenario) string {
	return fingerprint + "|task=" + string(sc.Task) + "|cs=" + strconv.FormatBool(sc.CommonSense) +
		"|seed=" + strconv.FormatInt(sc.Seed, 10)
}

// fill populates the outcome fields of a record from a task outcome whose
// frame matches the scenario's (the cached path translates through the
// spec's MapOutcome first): the outcome's one stage split supplies the
// per-stage rounds, and zero-valued stages vanish from the JSON, so each
// task's records expose exactly its own stage vocabulary.
func (rec *Record) fill(out task.Outcome) {
	rec.Rounds = out.Rounds
	rec.LeaderID = out.LeaderID
	sp := out.PerAgent[0]
	rec.RoundsNontrivial = sp.Nontrivial
	rec.RoundsAgreement = sp.Agreement
	rec.RoundsLeader = sp.Leader
	rec.RoundsCoordination = sp.Coordination
	rec.RoundsDiscovery = sp.Discovery
	rec.Status = StatusOK
	rec.Verified = true
}
