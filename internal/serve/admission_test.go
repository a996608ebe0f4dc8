package serve

// Internal tests for admission control: the pending gauge is driven
// directly, so saturation is tested deterministically instead of racing
// computes into a full state.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ringsym/internal/campaign"
)

func newSaturableServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

const runBody = `{"task":"coordinate","model":"basic","n":8,"seed":1}`

func TestAdmissionControl429(t *testing.T) {
	s, ts := newSaturableServer(t, Options{Workers: 1, MaxPending: 2})

	// Below the bound requests are served.
	if resp := post(t, ts.URL+"/v1/run", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("unsaturated /v1/run: %s", resp.Status)
	}

	s.pending.Add(2) // saturate
	resp := post(t, ts.URL+"/v1/run", runBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /v1/run: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Errorf("429 body not a JSON error: %v %v", body, err)
	}
	if resp := post(t, ts.URL+"/v1/campaign", `{"sizes":[8],"seeds":[1]}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /v1/campaign: %s, want 429", resp.Status)
	}

	m := s.Snapshot()
	if m.Throttled != 2 {
		t.Errorf("Throttled = %d, want 2", m.Throttled)
	}
	if m.Pending != 2 {
		t.Errorf("Pending = %d, want 2", m.Pending)
	}

	s.pending.Add(-2) // drain
	if resp := post(t, ts.URL+"/v1/run", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("drained /v1/run: %s", resp.Status)
	}
	if m := s.Snapshot(); m.Pending != 0 {
		t.Errorf("Pending after drain = %d, want 0", m.Pending)
	}
}

// TestAdmissionControlCacheHitExempt: shedding load must not refuse answers
// that cost nothing — a memoised scenario is served even at saturation.
func TestAdmissionControlCacheHitExempt(t *testing.T) {
	s, ts := newSaturableServer(t, Options{Workers: 1, MaxPending: 1, Cache: campaign.NewCache(0)})

	// Prime the cache while unsaturated.
	if resp := post(t, ts.URL+"/v1/run", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming run: %s", resp.Status)
	}

	s.pending.Add(1)
	defer s.pending.Add(-1)
	resp := post(t, ts.URL+"/v1/run", runBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit at saturation: %s, want 200", resp.Status)
	}
	var rec campaign.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Cache != "hit" {
		t.Errorf("record cache = %q, want hit", rec.Cache)
	}
	// A scenario the cache has not seen is still shed.
	if resp := post(t, ts.URL+"/v1/run", `{"task":"coordinate","model":"lazy","n":12,"seed":7}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("fresh scenario at saturation: %s, want 429", resp.Status)
	}
}

// TestMaxPendingDisabledByDefault: the zero value keeps the old unbounded
// queueing behaviour.
func TestMaxPendingDisabledByDefault(t *testing.T) {
	s, ts := newSaturableServer(t, Options{Workers: 1})
	s.pending.Add(1 << 20)
	defer s.pending.Add(-(1 << 20))
	if resp := post(t, ts.URL+"/v1/run", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("MaxPending=0 still throttles: %s", resp.Status)
	}
}

// TestRunWaitsForPoolToken: a /v1/run miss computes on its handler's
// goroutine only while it holds one of the pool's Workers tokens, and
// counts as pending while it waits for one.
func TestRunWaitsForPoolToken(t *testing.T) {
	s, ts := newSaturableServer(t, Options{Workers: 1})
	s.tokens <- struct{}{} // the pool's only token is busy
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runBody))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	for s.Snapshot().Pending != 1 {
		select {
		case code := <-status:
			t.Fatalf("/v1/run answered %d without a pool token", code)
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case code := <-status:
		t.Fatalf("/v1/run answered %d without a pool token", code)
	case <-time.After(20 * time.Millisecond):
	}
	<-s.tokens
	if code := <-status; code != http.StatusOK {
		t.Fatalf("/v1/run after the token freed: status %d", code)
	}
	if m := s.Snapshot(); m.Pending != 0 || m.Records != 1 {
		t.Fatalf("after the run: pending %d, records %d", m.Pending, m.Records)
	}
}

// TestCampaignWaitsForPoolToken is the /v1/campaign twin of
// TestRunWaitsForPoolToken: with every token taken, a campaign request
// writes no record, and its scenario counts as pending until a token frees.
func TestCampaignWaitsForPoolToken(t *testing.T) {
	s, ts := newSaturableServer(t, Options{Workers: 1})
	s.tokens <- struct{}{} // the pool's only token is busy
	type answer struct {
		code int
		body string
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(
			`{"tasks":["coordinate"],"models":["basic"],"parities":["even"],"chirality":["mixed"],"sizes":[8],"seeds":[1]}`))
		if err != nil {
			t.Error(err)
			done <- answer{}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
		}
		done <- answer{resp.StatusCode, string(body)}
	}()
	for s.Snapshot().Pending != 1 {
		select {
		case a := <-done:
			t.Fatalf("/v1/campaign answered %d without a pool token: %q", a.code, a.body)
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case a := <-done:
		t.Fatalf("/v1/campaign answered %d without a pool token: %q", a.code, a.body)
	case <-time.After(20 * time.Millisecond):
	}
	if m := s.Snapshot(); m.Records != 0 {
		t.Fatalf("%d records without a pool token", m.Records)
	}
	<-s.tokens
	a := <-done
	if a.code != http.StatusOK || strings.Count(a.body, "\n") != 1 || !strings.Contains(a.body, `"status":"ok"`) {
		t.Fatalf("/v1/campaign after the token freed: status %d, body %q", a.code, a.body)
	}
	if m := s.Snapshot(); m.Pending != 0 || m.Records != 1 {
		t.Fatalf("after the campaign: pending %d, records %d", m.Pending, m.Records)
	}
}
