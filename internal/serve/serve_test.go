package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/obs"
	"ringsym/internal/serve"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// newTestServer starts a pool and an httptest server around its handler.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	pool := serve.New(opts)
	ts := httptest.NewServer(pool.Handler())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return pool, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeRecord(t *testing.T, r *http.Response) campaign.Record {
	t.Helper()
	defer r.Body.Close()
	var rec campaign.Record
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
}

// TestRunEndpoint: one scenario through the daemon equals the same scenario
// run directly, field for field.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	sc := campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 3}
	resp := postJSON(t, ts.URL+"/v1/run", sc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got := decodeRecord(t, resp)

	want := sc
	want.IDBound = 4 * sc.N // the daemon's documented default
	wantRec := campaign.RunScenarioContext(t.Context(), want, campaign.Options{})
	wantRec.Wall, got.Wall = 0, 0
	if !reflect.DeepEqual(got, wantRec) {
		t.Fatalf("daemon record differs:\n got %+v\nwant %+v", got, wantRec)
	}
	if got.Status != campaign.StatusOK || !got.Verified {
		t.Fatalf("record not ok: %+v", got)
	}
}

// TestRunAnswersInOneWrite: a /v1/run answer, miss or hit, is one
// Content-Length response, not a chunked stream, and its body is the
// record's json.Marshal plus a newline, byte for byte.
func TestRunAnswersInOneWrite(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, Cache: campaign.NewCache(0)})
	miss := campaign.Scenario{Task: campaign.TaskDiscover, Model: "lazy", N: 9, IDBound: 36, Seed: 4}
	hit := miss
	hit.Phase, hit.Reflect = 5, true
	for _, c := range []struct {
		sc    campaign.Scenario
		cache string
	}{{miss, "miss"}, {hit, "hit"}} {
		resp := postJSON(t, ts.URL+"/v1/run", c.sc)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.cache, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Transfer-Encoding %q, Content-Length %d for a %d-byte body; want no transfer coding and the body's length",
				c.cache, resp.TransferEncoding, resp.ContentLength, len(body))
		}
		want := campaign.RunScenarioContext(t.Context(), c.sc, campaign.Options{})
		want.Cache = c.cache
		wantBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if wantBody = append(wantBody, '\n'); !bytes.Equal(body, wantBody) {
			t.Errorf("%s: body\n%s\nwant\n%s", c.cache, body, wantBody)
		}
	}
}

func TestRunValidation(t *testing.T) {
	pool, ts := newTestServer(t, serve.Options{Workers: 1})
	for name, body := range map[string]string{
		"malformed":     `{"task":`,
		"unknown field": `{"task":"coordinate","model":"basic","n":8,"bogus":1}`,
		"trailing":      `{"task":"coordinate","model":"basic","n":8}{}`,
		"bad task":      `{"task":"elect","model":"basic","n":8}`,
		"removed task":  `{"task":"patrol","model":"lazy","n":9,"seed":2}`,
		"bad model":     `{"task":"coordinate","model":"quantum","n":8}`,
		"n too small":   `{"task":"coordinate","model":"basic","n":4}`,
		"n too large":   `{"task":"coordinate","model":"basic","n":100000000}`,
		"contradiction": `{"task":"coordinate","model":"basic","n":8,"mixed_chirality":true,"common_sense":true}`,
		"small idbound": `{"task":"coordinate","model":"basic","n":8,"id_bound":7}`,
		"large idbound": `{"task":"coordinate","model":"perceptive","n":8,"id_bound":1073741824}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if m := pool.Snapshot(); m.BadRequests != 11 || m.RunRequests != 0 || m.Records != 0 {
		t.Fatalf("metrics after bad requests: %+v", m)
	}
}

// TestCampaignSizeCapped: the per-scenario n cap applies to matrix sweeps
// too — a small matrix with a huge size must be rejected up front, not run.
func TestCampaignSizeCapped(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/campaign", campaign.Matrix{Sizes: []int{100000000}, Seeds: []int64{1}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}

	// The bound respects the parities axis: a sweep restricted to even n at
	// exactly the cap must not be rejected for the odd +1 adjustment it
	// never expands.
	_, ts2 := newTestServer(t, serve.Options{Workers: 1, MaxN: 16})
	resp2 := postJSON(t, ts2.URL+"/v1/campaign", campaign.Matrix{
		Tasks: []campaign.Task{campaign.TaskCoordinate}, Models: []string{"basic"},
		Parities: []string{"even"}, Sizes: []int{16}, Seeds: []int64{1},
	})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("even-parity boundary matrix rejected: status = %d", resp2.StatusCode)
	}
}

// TestConcurrentClients is the serving acceptance bar: 64 parallel clients
// hammer POST /v1/run (8 distinct scenarios spanning tasks, models, sizes and
// symmetric phase/reflection variants, 8 clients each) against one daemon
// with the memo cache on.  Every response is verified against an
// independently computed record (direct, uncached execution), and the cache
// counters must show exactly one computation per symmetry orbit.
func TestConcurrentClients(t *testing.T) {
	cache := campaign.NewCache(0)
	pool, ts := newTestServer(t, serve.Options{Cache: cache})

	// 8 distinct scenarios; the phase/reflect variants fold into the orbit of
	// their base scenario, so the 6 base settings make 6 canonical orbits.
	scenarios := []campaign.Scenario{
		{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1},
		{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1, Phase: 3},
		{Task: campaign.TaskCoordinate, Model: "lazy", N: 8, Seed: 1, MixedChirality: true},
		{Task: campaign.TaskCoordinate, Model: "lazy", N: 8, Seed: 1, MixedChirality: true, Reflect: true},
		{Task: campaign.TaskCoordinate, Model: "basic", N: 9, Seed: 2},
		{Task: campaign.TaskDiscover, Model: "perceptive", N: 8, Seed: 1},
		{Task: campaign.TaskDiscover, Model: "basic", N: 9, Seed: 1, MixedChirality: true},
		{Task: campaign.TaskCoordinate, Model: "perceptive", N: 12, Seed: 5, MixedChirality: true},
	}
	const orbits = 6

	// Independent ground truth: direct execution, no cache, no daemon.
	want := make([]campaign.Record, len(scenarios))
	for i, sc := range scenarios {
		sc.IDBound = 4 * sc.N
		want[i] = campaign.RunScenarioContext(t.Context(), sc, campaign.Options{})
		want[i].Wall = 0
		if want[i].Status != campaign.StatusOK {
			t.Fatalf("%s: ground truth not ok: %+v", sc.Key(), want[i])
		}
	}

	const clientsPerScenario = 8 // 64 requests total
	var wg sync.WaitGroup
	for i := range scenarios {
		for c := 0; c < clientsPerScenario; c++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp := postJSON(t, ts.URL+"/v1/run", scenarios[i])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status = %d", scenarios[i].Key(), resp.StatusCode)
					resp.Body.Close()
					return
				}
				got := decodeRecord(t, resp)
				if got.Cache == "" {
					t.Errorf("%s: record lacks cache annotation", scenarios[i].Key())
				}
				got.Cache, got.Wall = "", 0
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: daemon record differs:\n got %+v\nwant %+v", scenarios[i].Key(), got, want[i])
				}
			}(i)
		}
	}
	wg.Wait()

	total := uint64(len(scenarios) * clientsPerScenario)
	m := pool.Snapshot()
	if m.RunRequests != total || m.Records != total || m.Failed != 0 {
		t.Fatalf("metrics: %+v", m)
	}
	st := cache.Stats()
	if st.Misses != orbits {
		t.Errorf("cache misses = %d, want %d (one computation per orbit)", st.Misses, orbits)
	}
	if st.Hits+st.Dedups != total-orbits {
		t.Errorf("hits+dedups = %d, want %d", st.Hits+st.Dedups, total-orbits)
	}
}

// TestCampaignEndpoint: the streamed JSONL of a /v1/campaign request equals
// the offline campaign over the same matrix, record for record, in
// scenario-index order.
func TestCampaignEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Cache: campaign.NewCache(0)})
	matrix := campaign.Matrix{Sizes: []int{8}, Seeds: []int64{1, 2}}
	scenarios, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.RunAll(context.Background(), scenarios, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/campaign", matrix)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var got []campaign.Record
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var rec campaign.Record
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", scan.Text(), err)
		}
		got = append(got, rec)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		if g.Index != i {
			t.Fatalf("record %d arrived with index %d (stream must be index-ordered)", i, g.Index)
		}
		g.Cache, g.Wall, want[i].Wall = "", 0, 0
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("record %d differs:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
}

// TestCampaignRange: ?lo=&hi= scope a campaign to a scenario-index range,
// and the concatenation of range responses reproduces the whole-matrix
// response byte-for-byte — the serving half of the fleet merger's
// byte-identity invariant.
func TestCampaignRange(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	matrix := campaign.Matrix{Sizes: []int{8}, Seeds: []int64{1, 2}}
	scenarios, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	total := len(scenarios)

	slurp := func(query string) ([]byte, int) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/campaign"+query, matrix)
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), resp.StatusCode
	}

	full, code := slurp("")
	if code != http.StatusOK {
		t.Fatalf("full campaign: status %d", code)
	}
	cuts := []int{0, 1, total / 3, total / 2, total}
	var merged bytes.Buffer
	for i := 0; i+1 < len(cuts); i++ {
		part, code := slurp(fmt.Sprintf("?lo=%d&hi=%d", cuts[i], cuts[i+1]))
		if code != http.StatusOK {
			t.Fatalf("range [%d, %d): status %d", cuts[i], cuts[i+1], code)
		}
		merged.Write(part)
	}
	if !bytes.Equal(full, merged.Bytes()) {
		t.Error("concatenated range responses differ from the full response")
	}

	// An empty range is a valid, empty stream.
	if part, code := slurp(fmt.Sprintf("?lo=%d&hi=%d", 1, 1)); code != http.StatusOK || len(part) != 0 {
		t.Errorf("empty range: status %d, %d bytes", code, len(part))
	}
	// Malformed and out-of-bounds ranges are rejected up front.
	for _, q := range []string{"?lo=-1", "?hi=nope", "?lo=abc", fmt.Sprintf("?hi=%d", total+1), "?lo=3&hi=2"} {
		if _, code := slurp(q); code != http.StatusBadRequest {
			t.Errorf("range query %q: status %d, want 400", q, code)
		}
	}
}

func TestCampaignTooLarge(t *testing.T) {
	// 100 seeds × 50 phases over the 24 default axis combinations is
	// 120,000 scenarios, above the 100,000 limit.
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	m := campaign.Matrix{Sizes: []int{8}, Seeds: make([]int64, 100), Phases: make([]int, 50)}
	for i := range m.Seeds {
		m.Seeds[i] = int64(i + 1)
	}
	for i := range m.Phases {
		m.Phases[i] = i
	}
	resp := postJSON(t, ts.URL+"/v1/campaign", m)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}

	// An abusive spec with huge axes must be rejected from the axis lengths
	// alone — before expansion allocates anything — so the server answers
	// instantly.
	seeds := make([]int64, 50000)
	phases := make([]int, 50000)
	for i := range seeds {
		seeds[i], phases[i] = int64(i+1), i
	}
	start := time.Now()
	resp2 := postJSON(t, ts.URL+"/v1/campaign", campaign.Matrix{Sizes: []int{8}, Seeds: seeds, Phases: phases})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge-axes status = %d, want 400", resp2.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("huge-axes rejection took %v (expanded before bounding?)", elapsed)
	}
}

// TestCancellationMidRequest: a client that disconnects mid-run frees its
// worker within one engine round instead of running the scenario to the end.
// The n=2048 discovery below takes seconds to complete; cancelled once its
// run has started (its scenario.start, emitted after it took its token), the
// worker must surface the aborted (failed, uncached) record almost
// immediately.
func TestCancellationMidRequest(t *testing.T) {
	cache := campaign.NewCache(0)
	pool, ts := newTestServer(t, serve.Options{Workers: 1, Cache: cache})
	sub := obs.Default.Subscribe(obs.SubOptions{Types: []string{string(obs.ScenarioStart)}})
	defer sub.Close()

	sc := campaign.Scenario{Task: campaign.TaskDiscover, Model: "perceptive", N: 2048, Seed: 1, MixedChirality: true}
	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitCtx, stopWaiting := context.WithTimeout(context.Background(), 10*time.Second)
	defer stopWaiting()
	for {
		ev, err := sub.Next(waitCtx)
		if err != nil {
			t.Fatalf("no scenario.start for the n = %d run: %v", sc.N, err)
		}
		if ev.N == sc.N {
			break
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request returned a response")
	}

	// The worker observes the cancellation within one round: the aborted
	// record lands well before the scenario could have completed, counted
	// as a cancellation (serving churn), not a failure.
	deadline := time.After(10 * time.Second)
	for {
		m := pool.Snapshot()
		if m.Records >= 1 {
			if m.Cancelled != 1 || m.Failed != 0 {
				t.Fatalf("metrics after cancellation: %+v", m)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("worker still busy long after cancellation: %+v", pool.Snapshot())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("aborted run was cached: %+v", st)
	}

	// The freed worker serves the next client normally.
	resp := postJSON(t, ts.URL+"/v1/run", campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d", resp.StatusCode)
	}
	if rec := decodeRecord(t, resp); rec.Status != campaign.StatusOK {
		t.Fatalf("follow-up record: %+v", rec)
	}
}

// TestClosedPoolRejects: submissions racing with shutdown get 503, not a
// hang or a panic.
func TestClosedPoolRejects(t *testing.T) {
	pool := serve.New(serve.Options{Workers: 1})
	handler := pool.Handler()
	pool.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"task":"coordinate","model":"basic","n":8}`))
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
}

// TestShutdownMidCampaignStream: pool shutdown racing a streaming campaign
// terminates the (truncated) response instead of stalling it until the
// client gives up.
func TestShutdownMidCampaignStream(t *testing.T) {
	pool := serve.New(serve.Options{Workers: 1})
	ts := httptest.NewServer(pool.Handler())
	defer ts.Close()

	seeds := make([]int64, 500)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	resp := postJSON(t, ts.URL+"/v1/campaign", campaign.Matrix{
		Tasks: []campaign.Task{campaign.TaskCoordinate}, Models: []string{"basic"},
		Parities: []string{"even"}, Sizes: []int{8}, Seeds: seeds,
	})
	defer resp.Body.Close()
	scan := bufio.NewScanner(resp.Body)
	if !scan.Scan() {
		t.Fatal("no first record")
	}
	pool.Close()
	done := make(chan struct{})
	go func() {
		for scan.Scan() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign stream stalled after pool shutdown")
	}
}

// TestCampaignLeavesNoGoroutines: a /v1/campaign request's goroutines end
// with the request, whether it completes, its client cancels it, or Close
// cuts it.
func TestCampaignLeavesNoGoroutines(t *testing.T) {
	pool := serve.New(serve.Options{Workers: 2})
	ts := httptest.NewServer(pool.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	seeds := make([]int64, 500)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	long, err := json.Marshal(campaign.Matrix{
		Tasks: []campaign.Task{campaign.TaskCoordinate}, Models: []string{"basic"},
		Parities: []string{"even"}, Sizes: []int{8}, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	// post starts a campaign and returns its stream after the first record.
	post := func(ctx context.Context, body []byte) (*http.Response, *bufio.Scanner) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/campaign", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		scan := bufio.NewScanner(resp.Body)
		if !scan.Scan() {
			t.Fatalf("no first record: %v", scan.Err())
		}
		return resp, scan
	}

	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	short, err := json.Marshal(campaign.Matrix{Sizes: []int{8}, Seeds: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	resp, scan := post(t.Context(), short)
	for scan.Scan() {
	}
	resp.Body.Close()
	settled("completed campaign")

	ctx, cancel := context.WithCancel(t.Context())
	resp, _ = post(ctx, long)
	cancel()
	resp.Body.Close()
	settled("client-cancelled campaign")

	resp, scan = post(t.Context(), long)
	pool.Close()
	for scan.Scan() {
	}
	resp.Body.Close()
	settled("campaign cut by Close")
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, Cache: campaign.NewCache(0)})
	resp := postJSON(t, ts.URL+"/v1/run", campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1})
	decodeRecord(t, resp)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunRequests != 1 || m.Records != 1 || m.Failed != 0 || m.Workers != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Cache == nil || m.Cache.Misses != 1 {
		t.Fatalf("cache metrics: %+v", m.Cache)
	}
	if m.UptimeSeconds <= 0 || m.RecordsPerSecond <= 0 {
		t.Fatalf("throughput metrics: %+v", m)
	}
	// The engine counters are process-wide, so concurrent tests may have
	// added to them; the scenario above definitely ran rounds through leap
	// batches, so all three must be live and consistent.
	if m.Engine.Rounds == 0 || m.Engine.LeapBatches == 0 {
		t.Fatalf("engine counters not populated: %+v", m.Engine)
	}
	if m.Engine.LeapBatches > m.Engine.Rounds {
		t.Fatalf("more crossings than rounds: %+v", m.Engine)
	}
	if m.Engine.MeanRoundsPerCrossing < 1 {
		t.Fatalf("mean rounds per crossing %v < 1", m.Engine.MeanRoundsPerCrossing)
	}
}

func ExampleServer() {
	pool := serve.New(serve.Options{Workers: 2, Cache: campaign.NewCache(0)})
	defer pool.Close()
	ts := httptest.NewServer(pool.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"task":"coordinate","model":"basic","n":8,"seed":1}`))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var rec campaign.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		panic(err)
	}
	fmt.Println(rec.Status, rec.Verified, rec.Cache)
	// Output: ok true miss
}

// TestTasksEndpoint: GET /v1/tasks lists both tasks, sorted, each with a
// description.
func TestTasksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/tasks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var infos []serve.TaskInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	want := task.Names()
	if len(infos) != len(want) {
		t.Fatalf("%d tasks listed, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i] {
			t.Errorf("entry %d is %q, want %q (sorted)", i, info.Name, want[i])
		}
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
	}

	if resp, err := http.Post(ts.URL+"/v1/tasks", "application/json", strings.NewReader("{}")); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/tasks: status = %d, want 405", resp.StatusCode)
		}
	}
}

// TestCampaignValidation: matrix bodies are decoded strictly too.
func TestCampaignValidation(t *testing.T) {
	pool, ts := newTestServer(t, serve.Options{Workers: 1})
	for name, body := range map[string]string{
		"unknown field": `{"task": ["coordinate"], "sizes": [8]}`,
		"bad task":      `{"tasks": ["elect"], "sizes": [8]}`,
		"removed task":  `{"tasks": ["bounce"], "sizes": [8]}`,
		"trailing":      `{"sizes": [8]}{}`,
		"id bound":      `{"sizes": [8], "id_bound_factor": 2305843009213693952}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if m := pool.Snapshot(); m.BadRequests != 5 || m.Records != 0 {
		t.Fatalf("metrics after bad requests: %+v", m)
	}
}

// TestRunTaskCaseNormalized: Lookup and ParseModel tolerate casing, but the
// names feed the cache key and the record — "Coordinate"/"Basic" must land
// in the same orbit, and produce the same record bytes, as the lowercase
// names a sweep writes.
func TestRunTaskCaseNormalized(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Cache: campaign.NewCache(0)})
	run := func(body map[string]any) []byte {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", body)
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	mixed := run(map[string]any{"task": "Coordinate", "model": "Basic", "n": 8, "seed": 1})
	var rec campaign.Record
	if err := json.Unmarshal(mixed, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Task != campaign.TaskCoordinate || rec.Model != "basic" || rec.Status != campaign.StatusOK {
		t.Fatalf("mixed-case record: %s", mixed)
	}
	lower := run(map[string]any{"task": "coordinate", "model": "basic", "n": 8, "seed": 1})
	strip := func(raw []byte, cache string) []byte {
		return bytes.Replace(raw, []byte(`,"cache":"`+cache+`"`), nil, 1)
	}
	if !bytes.Equal(strip(mixed, "miss"), strip(lower, "hit")) {
		t.Errorf("lowercase record differs beyond the cache annotation:\nmixed %s\nlower %s", mixed, lower)
	}
	variant := decodeRecord(t, postJSON(t, ts.URL+"/v1/run",
		map[string]any{"task": "coordinate", "model": "basic", "n": 8, "seed": 1, "phase": 3, "reflect": true}))
	if variant.Cache != "hit" {
		t.Errorf("lowercase symmetric variant annotated %q, want hit (cache fragmented by casing)", variant.Cache)
	}
}

// TestStoreMetrics: the metrics snapshot exposes the store when one is
// configured, and the daemon serves no store records over HTTP.
func TestStoreMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := campaign.NewCache(0)
	cache.AttachTier(st, nil)
	pool, ts := newTestServer(t, serve.Options{Cache: cache})

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
	} {
		if !bytes.Contains(body.Bytes(), []byte(want)) {
			t.Errorf("prometheus exposition lacks %q", want)
		}
	}

	// A fleet's daemons share records only through leases: a stored record
	// is not served by key.
	key := strings.Repeat("0", 64) + "|task=coordinate|cs=false|seed=1"
	if err := st.Put(key, []byte("[2]")); err != nil {
		t.Fatal(err)
	}
	httpResp, err = http.Get(ts.URL + "/v1/cache/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cache/<key>: status %d, want 404", httpResp.StatusCode)
	}
}
