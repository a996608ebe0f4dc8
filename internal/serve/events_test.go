package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/obs"
	"ringsym/internal/serve"
)

// openEvents opens GET /v1/events with the given query string and returns the
// live response; the header has been received, so the subscription exists
// before the caller triggers any work.
func openEvents(t *testing.T, ctx context.Context, url, query string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/events"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}
	return resp
}

// TestEventsEndpoint: a one-shot /v1/run is fully visible on the stream — the
// accepted request, the scenario starting and the scenario finishing, with the
// finish carrying the record's annotations.
func TestEventsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, Cache: campaign.NewCache(0)})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := openEvents(t, ctx, ts.URL, "?level=debug")
	defer resp.Body.Close()

	sc := campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1}
	if rec := decodeRecord(t, postJSON(t, ts.URL+"/v1/run", sc)); rec.Status != campaign.StatusOK {
		t.Fatalf("run record: %+v", rec)
	}

	// Read the stream until the three lifecycle events arrived (the engine may
	// interleave its own debug events); bound the wait with the context.
	want := map[obs.Type]bool{obs.ServeRequest: false, obs.ScenarioStart: false, obs.ScenarioFinish: false}
	go func() {
		time.Sleep(10 * time.Second)
		cancel() // unblocks a stream missing events into scanner EOF
	}()
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(scan.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scan.Text(), err)
		}
		if ev.Nanos <= 0 {
			t.Errorf("event without timestamp: %+v", ev)
		}
		switch ev.Type {
		case obs.ServeRequest:
			if ev.Endpoint != "/v1/run" {
				continue // another test's poll on a shared counter path
			}
		case obs.ScenarioStart:
			if ev.Task != string(sc.Task) || ev.N != sc.N || ev.Seed != sc.Seed {
				t.Errorf("scenario.start fields: %+v", ev)
			}
		case obs.ScenarioFinish:
			if ev.Status != string(campaign.StatusOK) || ev.Cache != "miss" || ev.Rounds <= 0 {
				t.Errorf("scenario.finish fields: %+v", ev)
			}
		default:
			continue
		}
		want[ev.Type] = true
		if want[obs.ServeRequest] && want[obs.ScenarioStart] && want[obs.ScenarioFinish] {
			return
		}
	}
	t.Fatalf("stream ended before all lifecycle events arrived: %v (scan err %v)", want, scan.Err())
}

// TestEventsFilters: type and level filters are applied server-side — a
// subscriber asking for scenario.finish at info level sees exactly the
// completion events, none of the debug chatter.
func TestEventsFilters(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := openEvents(t, ctx, ts.URL, "?types=scenario.finish&level=info")
	defer resp.Body.Close()

	const runs = 3
	for seed := int64(1); seed <= runs; seed++ {
		decodeRecord(t, postJSON(t, ts.URL+"/v1/run",
			campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: seed}))
	}

	go func() {
		time.Sleep(10 * time.Second)
		cancel()
	}()
	scan := bufio.NewScanner(resp.Body)
	got := 0
	for scan.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(scan.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != obs.ScenarioFinish {
			t.Fatalf("filtered stream leaked %q", ev.Type)
		}
		if ev.Level < obs.LevelInfo {
			t.Fatalf("filtered stream leaked level %v", ev.Level)
		}
		if got++; got == runs {
			return
		}
	}
	t.Fatalf("got %d scenario.finish events, want %d (scan err %v)", got, runs, scan.Err())
}

func TestEventsBadLevel(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/events?level=loud")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestEventsBackpressure is the backpressure acceptance bar: a subscriber
// that never reads its /v1/events stream must not slow down 64 parallel
// /v1/run clients, and once its bounded queue is full further events are
// dropped and counted.
func TestEventsBackpressure(t *testing.T) {
	cache := campaign.NewCache(0)
	pool, ts := newTestServer(t, serve.Options{Cache: cache})
	droppedBefore := obs.Default.Stats().Dropped

	// The stalled subscriber: opens the stream at debug level (every event
	// matches) and then never reads the body until the test ends.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalled := openEvents(t, ctx, ts.URL, "?level=debug")
	defer stalled.Body.Close()

	scenarios := []campaign.Scenario{
		{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1},
		{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1, Phase: 3},
		{Task: campaign.TaskCoordinate, Model: "lazy", N: 8, Seed: 1, MixedChirality: true},
		{Task: campaign.TaskCoordinate, Model: "basic", N: 9, Seed: 2},
		{Task: campaign.TaskDiscover, Model: "perceptive", N: 8, Seed: 1},
		{Task: campaign.TaskDiscover, Model: "basic", N: 9, Seed: 1, MixedChirality: true},
		{Task: campaign.TaskCoordinate, Model: "perceptive", N: 12, Seed: 5, MixedChirality: true},
		{Task: campaign.TaskCoordinate, Model: "lazy", N: 9, Seed: 7},
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
				if rec := decodeRecord(t, resp); rec.Status != campaign.StatusOK {
					t.Errorf("%s: record %+v", scenarios[i].Key(), rec)
				}
			}(i)
		}
	}

	// All 64 runs must complete promptly despite the wedged subscriber; a
	// blocking bus would deadlock the computes here.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("runs blocked behind a stalled /v1/events subscriber")
	}

	total := uint64(len(scenarios) * clientsPerScenario)
	m := pool.Snapshot()
	if m.Records != total || m.Failed != 0 {
		t.Fatalf("metrics: %+v", m)
	}
	// The drop-and-count contract: publishing far more than the subscriber
	// queue holds (up to 256 batches of 4096) at the stalled subscriber must
	// make it drop, and the drops must surface in the snapshot.
	for batch := 0; batch < 256 && obs.Default.Stats().Dropped == droppedBefore; batch++ {
		for i := 0; i < 4096; i++ {
			obs.Emit(obs.Event{Type: obs.ScenarioStart, Level: obs.LevelDebug, Index: i})
		}
	}
	m = pool.Snapshot()
	if m.Events.Subscribers < 1 || m.Events.Published == 0 || m.Events.Dropped == droppedBefore {
		t.Fatalf("bus accounting after stalled subscriber: %+v (dropped before: %d)", m.Events, droppedBefore)
	}
}

// TestMetricsPrometheus: the text exposition carries the serve-layer counters
// and every obs-registered metric, well-formed (# HELP/# TYPE per sample) and
// consistent with the JSON snapshot.
func TestMetricsPrometheus(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, Cache: campaign.NewCache(0)})
	decodeRecord(t, postJSON(t, ts.URL+"/v1/run",
		campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 8, Seed: 1}))

	resp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	samples := map[string]string{}
	types := map[string]string{}
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		line := scan.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[name] = value
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}

	for name, typ := range map[string]string{
		"ringsym_serve_records_total":        "counter",
		"ringsym_serve_run_requests_total":   "counter",
		"ringsym_serve_uptime_seconds":       "gauge",
		"ringsym_serve_workers":              "gauge",
		"ringsym_memo_entries":               "gauge",
		"ringsym_memo_misses_total":          "counter",
		"ringsym_engine_rounds_total":        "counter",
		"ringsym_engine_leap_batches_total":  "counter",
		"ringsym_obs_events_dropped_total":   "counter",
		"ringsym_obs_events_published_total": "counter",
		"ringsym_obs_subscribers":            "gauge",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("exposition lacks %s", name)
		}
		if got := types[name]; got != typ {
			t.Errorf("%s TYPE = %q, want %q", name, got, typ)
		}
	}
	if samples["ringsym_serve_records_total"] != "1" {
		t.Errorf("records_total = %q, want 1", samples["ringsym_serve_records_total"])
	}
	if samples["ringsym_serve_workers"] != "2" {
		t.Errorf("workers = %q, want 2", samples["ringsym_serve_workers"])
	}
	if samples["ringsym_memo_entries"] != "1" {
		t.Errorf("memo entries = %q, want 1", samples["ringsym_memo_entries"])
	}
	if samples["ringsym_engine_rounds_total"] == "0" {
		t.Error("engine rounds total is zero after a run")
	}
}

// TestPprofGated: the profiling handlers exist only when opted in.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, serve.Options{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: status = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, serve.Options{Workers: 1, Pprof: true})
	resp2, err := http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof with opt-in: status = %d", resp2.StatusCode)
	}
}
