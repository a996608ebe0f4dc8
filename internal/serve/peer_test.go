package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/serve"
	"ringsym/internal/store"
)

// peerMatrix is a small symmetric sweep: every solvable setting appears in
// 6 symmetric variants (3 phases × 2 reflections) that collapse to one
// computed orbit.
func peerMatrix() campaign.Matrix {
	return campaign.Matrix{
		Sizes:       []int{8},
		Seeds:       []int64{1, 2},
		Phases:      []int{0, 1, 2},
		Reflections: []bool{false, true},
	}
}

// runCampaignStream posts the matrix to a daemon and decodes the NDJSON
// record stream.
func runCampaignStream(t *testing.T, baseURL string, m campaign.Matrix) []campaign.Record {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/campaign", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign status %d", resp.StatusCode)
	}
	var recs []campaign.Record
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec campaign.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestPeerFillOneComputeFleetWide is the fleet acceptance test of the store
// tier: two daemons with private stores, one warmed by a symmetric sweep,
// the other cold but configured with the warm one as a cache peer.  The
// cold daemon's sweep must perform zero computations — every orbit is
// fetched over GET /v1/cache/<key> and promoted — so the fleet-wide total
// stays exactly one compute per orbit.
func TestPeerFillOneComputeFleetWide(t *testing.T) {
	scenarios, err := peerMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}

	// Warm daemon: compute the sweep once into its cache and store.
	warmStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warmStore.Close()
	warmCache := campaign.NewCache(0)
	warmCache.AttachTier(warmStore, nil)
	_, warmTS := newTestServer(t, serve.Options{Cache: warmCache, Store: warmStore})
	warmRecs := runCampaignStream(t, warmTS.URL, peerMatrix())
	if len(warmRecs) != len(scenarios) {
		t.Fatalf("warm sweep returned %d records, want %d", len(warmRecs), len(scenarios))
	}
	warmStats := warmCache.Stats()
	orbits := warmStats.Misses
	if orbits == 0 {
		t.Fatal("warm sweep computed nothing")
	}

	// Cold daemon: empty store, warm daemon as its one peer.
	coldStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coldStore.Close()
	peers := store.NewPeers("")
	peers.Set([]string{warmTS.URL})
	coldCache := campaign.NewCache(0)
	coldCache.AttachTier(coldStore, peers)
	_, coldTS := newTestServer(t, serve.Options{Cache: coldCache, Store: coldStore})
	coldRecs := runCampaignStream(t, coldTS.URL, peerMatrix())
	if len(coldRecs) != len(scenarios) {
		t.Fatalf("cold sweep returned %d records, want %d", len(coldRecs), len(scenarios))
	}

	coldStats := coldCache.Stats()
	if coldStats.Misses != 0 {
		t.Fatalf("cold daemon computed %d scenarios; fleet-wide compute must stay %d (stats %+v)", coldStats.Misses, orbits, coldStats)
	}
	if coldStats.PeerHits != orbits {
		t.Errorf("peer hits = %d, want one per orbit (%d)", coldStats.PeerHits, orbits)
	}
	// The warm daemon computed nothing extra while serving its peer.
	if after := warmCache.Stats(); after.Misses != orbits {
		t.Errorf("warm daemon recomputed: misses %d -> %d", orbits, after.Misses)
	}
	// Peer hits were promoted into the cold daemon's own store.
	if puts := coldStore.Stats().Puts; puts != orbits {
		t.Errorf("cold store holds %d promoted records, want %d", puts, orbits)
	}

	// Byte identity: the peer-served records equal the computed ones modulo
	// the cache annotation, and solvable cold records are never misses.
	for i := range coldRecs {
		w, g := warmRecs[i], coldRecs[i]
		if g.Status != campaign.StatusUnsolvable && g.Cache == "miss" {
			t.Errorf("%s: cold record was computed", g.Key())
		}
		w.Cache, g.Cache = "", ""
		w.Wall, g.Wall = 0, 0
		if !reflect.DeepEqual(w, g) {
			t.Errorf("record %d differs:\nwarm: %+v\ncold: %+v", i, w, g)
		}
	}
}

// TestCacheEndpoint covers the peering endpoint directly: validated keys,
// hit bytes served verbatim, 404 on miss, 400 on malformed keys.
func TestCacheEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := fmt.Sprintf("%064x|task=coordinate|cs=false|seed=1", 0xab)
	val := []byte(`{"Rounds":7}`)
	if err := st.Put(key, val); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Options{Store: st})

	resp, err := http.Get(ts.URL + "/v1/cache/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), val) {
		t.Fatalf("hit: status %d body %q, want 200 %q", resp.StatusCode, got.Bytes(), val)
	}

	miss := fmt.Sprintf("%064x|task=coordinate|cs=false|seed=2", 0xab)
	resp, err = http.Get(ts.URL + "/v1/cache/" + url.PathEscape(miss))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss: status %d, want 404", resp.StatusCode)
	}

	for _, bad := range []string{"nonsense", "..%2F..%2Fetc", fmt.Sprintf("%064X|task=coordinate|cs=false|seed=1", 0xab)} {
		resp, err = http.Get(ts.URL + "/v1/cache/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("key %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestStoreMetrics: the metrics snapshot exposes the store and the peering
// counter when a store is configured.
func TestStoreMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := campaign.NewCache(0)
	cache.AttachTier(st, nil)
	pool, ts := newTestServer(t, serve.Options{Cache: cache, Store: st})

	resp := postJSON(t, ts.URL+"/v1/run", campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1})
	if rec := decodeRecord(t, resp); rec.Status != campaign.StatusOK {
		t.Fatalf("run failed: %+v", rec)
	}
	m := pool.Snapshot()
	if m.Store == nil {
		t.Fatal("metrics lack the store block")
	}
	if m.Store.Puts != 1 || m.Store.IndexEntries != 1 {
		t.Fatalf("store stats = %+v, want the computed record written through", m.Store)
	}
	if m.Cache == nil || m.Cache.Misses != 1 || m.Cache.DiskHits != 0 {
		t.Fatalf("cache stats = %+v", m.Cache)
	}

	// The Prometheus exposition carries the store gauges.
	httpResp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(httpResp.Body)
	httpResp.Body.Close()
	for _, want := range []string{
		"ringsym_store_index_entries 1",
		"ringsym_store_total_bytes ",
		"ringsym_memo_disk_hits_total",
		"ringsym_store_puts_total",
		"ringsym_serve_cache_requests_total 0",
	} {
		if !bytes.Contains(body.Bytes(), []byte(want)) {
			t.Errorf("prometheus exposition lacks %q", want)
		}
	}
}
