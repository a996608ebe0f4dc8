package campaign

import (
	"context"
	"encoding/json"
	"regexp"

	"ringsym/internal/memo"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// ValidCacheKey matches the exact shape cacheKey produces: the 64-hex
// canonical fingerprint followed by the task, common-sense and seed
// selectors.  The serving layer's GET /v1/cache/<key> validates against it
// so a peer fetch (or a curious client) cannot probe the store with
// arbitrary strings.
var ValidCacheKey = regexp.MustCompile(`^[0-9a-f]{64}\|task=[a-z0-9_-]+\|cs=(?:true|false)\|seed=-?[0-9]+$`)

// outcomeTier adapts the byte-oriented persistent store (and optional fleet
// peer fetcher) to memo's typed Tier.  Outcomes cross the boundary in their
// stored form (task.Outcome's MarshalJSON): a version-led JSON array of one
// stage split, the agent count and the sorted Extra object, so a record
// served from disk or from a peer is byte-identical to a recomputed one
// after re-encoding.  The tier codes it through encoding/json, not the
// methods directly, because the benchmark's replay decodes the same store
// with json.Unmarshal and must stay in step with it.  Bytes of any other
// version (an older build's object form included) fail to decode and are a
// miss; the recompute's Put then supersedes them.  An outcome whose agents
// report different splits has no stored form and is not persisted.
type outcomeTier struct {
	st    *store.Store
	peers *store.Peers
}

// Load is memo's miss path below memory: local disk first, then one HTTP
// hop across the fleet peers.  A peer hit is written through to the local
// store before returning, so the next restart (and the next peer asking us)
// is served locally.  Undecodable bytes — a foreign or corrupt record —
// report a miss and fall through to compute; the store never poisons a
// result.
func (t outcomeTier) Load(ctx context.Context, key string) (task.Outcome, memo.Kind, bool) {
	if t.st != nil {
		if b, ok := t.st.Get(key); ok {
			if out, ok := decodeOutcome(b); ok {
				return out, memo.DiskHit, true
			}
		}
	}
	if t.peers != nil {
		if b, ok := t.peers.Fetch(ctx, key); ok {
			if out, ok := decodeOutcome(b); ok {
				if t.st != nil {
					t.st.Put(key, b) // best-effort promotion to local disk
				}
				return out, memo.PeerHit, true
			}
		}
	}
	var zero task.Outcome
	return zero, memo.Miss, false
}

// Store writes a freshly computed outcome through to disk.  Failures are
// dropped: persistence is an optimisation, and the computed value is
// already on its way to the caller.
func (t outcomeTier) Store(key string, out task.Outcome) {
	if t.st == nil {
		return
	}
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

// AttachTier threads the persistent store (and, when non-nil, the fleet
// peer fetcher) under the in-memory cache as its second tier: the miss path
// becomes memory → disk → peers → compute.  Call before serving; passing a
// nil store and nil peers detaches the tier.
func (c *Cache) AttachTier(st *store.Store, peers *store.Peers) {
	if st == nil && peers == nil {
		c.c.SetTier(nil)
		return
	}
	c.c.SetTier(outcomeTier{st: st, peers: peers})
}
