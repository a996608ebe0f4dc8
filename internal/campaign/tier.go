package campaign

import (
	"context"
	"encoding/json"

	"ringsym/internal/memo"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// outcomeTier adapts the byte-oriented persistent store to memo's typed
// Tier.  Outcomes cross the boundary in their stored form (task.Outcome's
// MarshalJSON): a version-led JSON array of the scalars and the run's one
// stage split, so a record served from disk is byte-identical to a
// recomputed one after re-encoding.  The tier codes it through
// encoding/json, not the methods directly, because the benchmark's replay
// decodes the same store with json.Unmarshal and must stay in step with it.
// Bytes of any other version (an older build's object form included) fail
// to decode and are a miss; the recompute's Put then supersedes them.
type outcomeTier struct{ st *store.Store }

// Load is memo's miss path below memory: the local disk.  Undecodable bytes
// — a foreign or corrupt record — report a miss and fall through to
// compute; the store never poisons a result.
func (t outcomeTier) Load(_ context.Context, key string) (task.Outcome, memo.Kind, bool) {
	if b, ok := t.st.Get(key); ok {
		if out, ok := decodeOutcome(b); ok {
			return out, memo.DiskHit, true
		}
	}
	return task.Outcome{}, memo.Miss, false
}

// Store writes a freshly computed outcome through to disk.  Failures are
// dropped: persistence is an optimisation, and the computed value is
// already on its way to the caller.
func (t outcomeTier) Store(key string, out task.Outcome) {
	b, err := json.Marshal(out)
	if err != nil {
		return
	}
	t.st.Put(key, b)
}

func decodeOutcome(b []byte) (task.Outcome, bool) {
	var out task.Outcome
	if err := json.Unmarshal(b, &out); err != nil {
		return task.Outcome{}, false
	}
	return out, true
}

// AttachTier threads the persistent store under the in-memory cache as its
// second tier: the miss path becomes memory → disk → compute.  Call before
// serving; a nil store detaches the tier.  The cache remembers the store
// (see Store), so whoever reports the cache reports the store that serves
// it.  The second parameter is ignored; it is kept only because the
// benchmark module passes nil there, and goes in the next benchmark change.
func (c *Cache) AttachTier(st *store.Store, _ any) {
	c.st = st
	if st == nil {
		c.c.SetTier(nil)
		return
	}
	c.c.SetTier(outcomeTier{st: st})
}

// Store returns the persistent store attached under the cache as its second
// tier, or nil.
func (c *Cache) Store() *store.Store { return c.st }
