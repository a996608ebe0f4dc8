package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/serve"
)

// BenchmarkRunMiss times sequential /v1/run misses on a cached daemon: every
// request is a fresh orbit (a seed no earlier request used), so each one is
// prepared, probed, computed on its handler's goroutine and answered, the
// path a daemon's first requests take.  Every answer must equal the record of an
// uncached run, annotated as a miss, byte for byte; the references are
// computed before the timer starts.
func BenchmarkRunMiss(b *testing.B) {
	pool := serve.New(serve.Options{Cache: campaign.NewCache(0)})
	ts := httptest.NewServer(pool.Handler())
	defer func() {
		ts.Close()
		pool.Close()
	}()
	type shape struct {
		task  campaign.Task
		model string
		n     int
	}
	shapes := []shape{
		{campaign.TaskCoordinate, "basic", 8}, {campaign.TaskDiscover, "lazy", 9},
		{campaign.TaskCoordinate, "perceptive", 12}, {campaign.TaskDiscover, "basic", 13},
		{campaign.TaskCoordinate, "lazy", 16}, {campaign.TaskDiscover, "perceptive", 17},
	}
	bodies := make([][]byte, b.N)
	want := make([][]byte, b.N)
	for i := range bodies {
		sh := shapes[i%len(shapes)]
		sc := campaign.Scenario{
			Task: sh.task, Model: sh.model, N: sh.n, IDBound: 4 * sh.n,
			MixedChirality: i%4 < 2, Seed: int64(i + 1), Phase: i % sh.n, Reflect: i%2 == 1, Index: i,
		}
		var err error
		if bodies[i], err = json.Marshal(sc); err != nil {
			b.Fatal(err)
		}
		ref := campaign.RunScenarioContext(b.Context(), sc, campaign.Options{})
		if ref.Status != campaign.StatusOK {
			b.Fatalf("%s: %s %s", sc.Key(), ref.Status, ref.Error)
		}
		ref.Cache = "miss"
		if want[i], err = json.Marshal(ref); err != nil {
			b.Fatal(err)
		}
		want[i] = append(want[i], '\n')
	}
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range bodies {
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			b.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[i]) {
			b.Fatalf("request %d: status %d, body\n%s\nwant\n%s", i, resp.StatusCode, got, want[i])
		}
	}
}
