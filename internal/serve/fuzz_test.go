package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/serve"
)

// FuzzRunBody feeds arbitrary bytes to POST /v1/run on one cached server
// capped at n = 16.  No body may panic the handler, every answer is 200 or
// 400, and every 200 carries a record a sweep could have written: lowercase
// task and model names, n and id_bound within the daemon's limits, and a
// status of ok or unsolvable.  A failed record for a body the daemon
// accepted means validation let through a scenario the protocols cannot run.
func FuzzRunBody(f *testing.F) {
	pool := serve.New(serve.Options{Workers: 1, MaxN: 16, Cache: campaign.NewCache(0)})
	f.Cleanup(pool.Close)
	h := pool.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// The handler runs on the fuzz goroutine, outside net/http's
		// per-connection recover, so a panic fails the input.
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body.Bytes())
		}
		var rec campaign.Record
		if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
			t.Fatalf("200 body is not a record: %v: %s", err, w.Body.Bytes())
		}
		if string(rec.Task) != strings.ToLower(string(rec.Task)) || rec.Model != strings.ToLower(rec.Model) {
			t.Errorf("record names not lowercase: task %q model %q", rec.Task, rec.Model)
		}
		if rec.N > 16 || rec.IDBound > campaign.MaxIDBound {
			t.Errorf("record beyond the daemon's limits: n %d id_bound %d", rec.N, rec.IDBound)
		}
		if rec.Status != campaign.StatusOK && rec.Status != campaign.StatusUnsolvable {
			t.Errorf("accepted body %q gave a %s record: %s", body, rec.Status, rec.Error)
		}
	})
}
