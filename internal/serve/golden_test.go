package serve_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/serve"
)

// goldenGrid is the 216-scenario sweep of testdata/golden
// (ringfarm -sizes 8,12,16 -seeds 1:3).
var goldenGrid = campaign.Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2, 3}}

// goldenRecordsDigest returns the checksum testdata/golden/SHA256SUMS pins
// for golden/sweep/records.jsonl.
func goldenRecordsDigest(t *testing.T) string {
	t.Helper()
	f, err := os.Open("../../testdata/golden/SHA256SUMS")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, file, ok := strings.Cut(sc.Text(), "  "); ok && file == "golden/sweep/records.jsonl" {
			return sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatal("no checksum for golden/sweep/records.jsonl in SHA256SUMS")
	return ""
}

// postGolden posts the golden grid to /v1/campaign and returns the streamed
// body.
func postGolden(t *testing.T, url string) []byte {
	t.Helper()
	resp := postJSON(t, url+"/v1/campaign", goldenGrid)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	return body
}

// checkGolden fails unless body is golden/sweep/records.jsonl byte for byte.
func checkGolden(t *testing.T, body []byte) {
	t.Helper()
	sum := sha256.Sum256(body)
	if got, want := hex.EncodeToString(sum[:]), goldenRecordsDigest(t); got != want {
		t.Fatalf("/v1/campaign over the golden grid: digest %s, want %s", got, want)
	}
}

// TestCampaignGoldenConcurrent runs the golden grid on a three-worker
// daemon.  The request runs its scenarios on three goroutines at once, each
// on a fresh network whose agents borrow their protocol state from the
// shared run arenas.  Two running scenarios sharing state (a race under
// -race, and corrupt records without it) or state leaking from one scenario
// into the next would change the bytes.
func TestCampaignGoldenConcurrent(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 3})
	checkGolden(t, postGolden(t, ts.URL))
}

// campaignAllocBudget bounds the heap allocations of one /v1/campaign
// request over the golden grid on a one-worker pool, client included.  With
// every scenario on a fresh network it measured 4.3k (4.9k under -race).
const campaignAllocBudget = 12000

// TestCampaignAllocBudget fails when a campaign's scenarios get costlier to
// run: a network whose cost grows with n again, or protocol state that stops
// coming warm from the run arenas, shows up here first.
func TestCampaignAllocBudget(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	var body []byte
	got := testing.AllocsPerRun(3, func() { body = postGolden(t, ts.URL) })
	checkGolden(t, body)
	t.Logf("%.0f allocations per golden /v1/campaign request, budget %d", got, campaignAllocBudget)
	if got > campaignAllocBudget {
		t.Errorf("%.0f allocations per golden /v1/campaign request, budget %d", got, campaignAllocBudget)
	}
}
