package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/obs"
	"ringsym/internal/serve"
)

// testMatrix is small enough for fast tests but spans tasks and models so
// records exercise the full export shape.
func testMatrix() campaign.Matrix {
	return campaign.Matrix{
		Tasks:  []campaign.Task{campaign.TaskCoordinate, campaign.TaskDiscover},
		Models: []string{"perceptive", "lazy"},
		Sizes:  []int{8},
		Seeds:  []int64{1, 2},
	}
}

// localExport runs the matrix single-machine and returns the canonical JSONL
// bytes every fleet configuration must reproduce.
func localExport(t *testing.T, m campaign.Matrix) []byte {
	t.Helper()
	scs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.RunAll(context.Background(), scs, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := campaign.NewOrderedWriter(&buf, scs)
	for _, rec := range recs {
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startWorker spins up a real serving pool behind httptest, exactly what a
// ringd daemon serves.
func startWorker(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	pool := serve.New(opts)
	ts := httptest.NewServer(pool.Handler())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return ts
}

func TestFleetByteIdentity(t *testing.T) {
	m := testMatrix()
	want := localExport(t, m)

	w1 := startWorker(t, serve.Options{Workers: 2})
	w2 := startWorker(t, serve.Options{Workers: 2})
	var got bytes.Buffer
	res, err := Run(context.Background(), m, Options{
		Workers:   []string{w1.URL, w2.URL},
		LeaseSize: 3,
		Records:   &got,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fleet export differs from the single-machine export:\nfleet:\n%s\nlocal:\n%s", got.Bytes(), want)
	}
	if len(res.Quarantined) != 0 {
		t.Errorf("clean run quarantined %v", res.Quarantined)
	}
	if res.Merged != res.Total {
		t.Errorf("merged %d of %d", res.Merged, res.Total)
	}
	var streamed int64
	for _, ws := range res.Workers {
		streamed += ws.Records
	}
	if streamed != int64(res.Total) {
		t.Errorf("workers streamed %d records, want %d", streamed, res.Total)
	}
}

// TestRunLeavesNoConnection checks that a finished Run holds no keep-alive
// to a worker, with the default client and with a caller's: whether one
// survived used to hang on steal timing.
func TestRunLeavesNoConnection(t *testing.T) {
	m := testMatrix()
	for name, client := range map[string]*http.Client{"default": nil, "caller's": {Transport: &http.Transport{}}} {
		var open atomic.Int64
		pool := serve.New(serve.Options{Workers: 1})
		ts := httptest.NewUnstartedServer(pool.Handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				open.Add(1)
			case http.StateClosed, http.StateHijacked:
				open.Add(-1)
			}
		}
		ts.Start()
		if _, err := Run(context.Background(), m, Options{Workers: []string{ts.URL}, Client: client}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for open.Load() != 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := open.Load(); n != 0 {
			t.Errorf("%s client: %d connection(s) still open after Run returned", name, n)
		}
		ts.Close()
		pool.Close()
	}
}

// flakyWorker streams real records but aborts the connection after maxLines
// lines on the first failTimes requests: a daemon dying mid-stream.
type flakyWorker struct {
	t         *testing.T
	remaining atomic.Int64 // aborts left to inject
	maxLines  int
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		return
	}
	lo, _ := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, _ := strconv.Atoi(r.URL.Query().Get("hi"))
	var m campaign.Matrix
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scs, err := m.Expand()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lines := exportLines(f.t, scs)
	abort := f.remaining.Add(-1) >= 0
	for i, line := range lines[lo:hi] {
		if abort && i >= f.maxLines {
			panic(http.ErrAbortHandler) // cut the stream mid-lease
		}
		w.Write(append(line, '\n'))
		w.(http.Flusher).Flush()
	}
}

// exportLines renders every scenario's canonical JSONL line, indexed by
// scenario index.
func exportLines(t *testing.T, scs []campaign.Scenario) [][]byte {
	t.Helper()
	recs, err := campaign.RunAll(context.Background(), scs, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := campaign.NewOrderedWriter(&buf, scs)
	for _, rec := range recs {
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = append([]byte(nil), l...)
	}
	return out
}

func TestFleetSurvivesMidStreamDeath(t *testing.T) {
	m := testMatrix()
	want := localExport(t, m)

	sub := obs.Default.Subscribe(obs.SubOptions{Buffer: 1 << 12})
	defer sub.Close()

	// The worker dies after the first line of a lease.  A steal leaves the
	// victim at least stealMin/2 = 2 lines, so the cut always lands inside
	// the range the coordinator still expects; dying after 2 lines let a
	// steal that shrank the lease to exactly 2 hide the fault.
	flaky := &flakyWorker{t: t, maxLines: 1}
	flaky.remaining.Store(2) // two leases die mid-stream, then behave
	fw := httptest.NewServer(flaky)
	defer fw.Close()
	good := startWorker(t, serve.Options{Workers: 2})

	var got bytes.Buffer
	res, err := Run(context.Background(), m, Options{
		Workers:       []string{fw.URL, good.URL},
		LeaseSize:     4,
		Records:       &got,
		probeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("fleet export with a dying worker differs from the single-machine export")
	}
	if res.Merged != res.Total || len(res.Quarantined) != 0 {
		t.Errorf("merged %d of %d, quarantined %v", res.Merged, res.Total, res.Quarantined)
	}
	fails := 0
	for _, ws := range res.Workers {
		fails += ws.Fails
	}
	if fails == 0 {
		t.Error("no lease attempt failed; the fault was not injected")
	}

	types := map[obs.Type]int{}
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		types[ev.Type]++
	}
	for _, want := range []obs.Type{obs.FleetWorkerDown, obs.FleetLeaseFail, obs.FleetLeaseGrant, obs.FleetLeaseDone} {
		if types[want] == 0 {
			t.Errorf("no %s event emitted (got %v)", want, types)
		}
	}
}

// poisonWorker serves real records except for ranges touching a poisoned
// index, which always fail: the quarantine path.
type poisonWorker struct {
	t      *testing.T
	poison int
}

func (p *poisonWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		return
	}
	lo, _ := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, _ := strconv.Atoi(r.URL.Query().Get("hi"))
	if lo <= p.poison && p.poison < hi {
		http.Error(w, "simulated poison range", http.StatusInternalServerError)
		return
	}
	var m campaign.Matrix
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scs, err := m.Expand()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, line := range exportLines(p.t, scs)[lo:hi] {
		w.Write(append(line, '\n'))
	}
}

func TestFleetQuarantinesPoisonRange(t *testing.T) {
	m := testMatrix()
	want := localExport(t, m)
	const poison = 5

	pw := httptest.NewServer(&poisonWorker{t: t, poison: poison})
	defer pw.Close()

	var got bytes.Buffer
	res, err := Run(context.Background(), m, Options{
		Workers:       []string{pw.URL},
		LeaseSize:     1, // isolate the poison to its own lease
		maxAttempts:   2,
		Records:       &got,
		probeInterval: 10 * time.Millisecond,
		retryBase:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != (Range{Lo: poison, Hi: poison + 1}) {
		t.Fatalf("quarantined %v, want [{%d %d}]", res.Quarantined, poison, poison+1)
	}
	if res.Merged != res.Total-1 {
		t.Errorf("merged %d, want %d", res.Merged, res.Total-1)
	}
	// The export must be the full one minus exactly the poisoned line.
	wantLines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	expect := bytes.Join(append(append([][]byte{}, wantLines[:poison]...), wantLines[poison+1:]...), []byte("\n"))
	expect = append(expect, '\n')
	if !bytes.Equal(got.Bytes(), expect) {
		t.Error("quarantined export is not the full export minus the poisoned line")
	}
}

// throttlingWorker answers 429 for the first rejects requests, then defers
// to a real pool: admission-control backoff must retry without counting
// failures.
type throttlingWorker struct {
	rejects atomic.Int64
	real    http.Handler
}

func (tw *throttlingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/campaign") && tw.rejects.Add(-1) >= 0 {
		w.Header().Set("Retry-After", "0") // malformed on purpose: falls back to retryBase
		w.WriteHeader(http.StatusTooManyRequests)
		return
	}
	tw.real.ServeHTTP(w, r)
}

func TestFleetHonours429Backoff(t *testing.T) {
	m := testMatrix()
	want := localExport(t, m)

	pool := serve.New(serve.Options{Workers: 2})
	defer pool.Close()
	tw := &throttlingWorker{real: pool.Handler()}
	tw.rejects.Store(3)
	ts := httptest.NewServer(tw)
	defer ts.Close()

	var got bytes.Buffer
	res, err := Run(context.Background(), m, Options{
		Workers:   []string{ts.URL},
		LeaseSize: 4,
		Records:   &got,
		retryBase: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("throttled fleet export differs from the single-machine export")
	}
	for _, ws := range res.Workers {
		if ws.Fails != 0 {
			t.Errorf("worker %s counted %d failures; throttling must not count as lease failure", ws.Addr, ws.Fails)
		}
	}
	if tw.rejects.Load() > 0 {
		t.Error("the 429 path was never exercised")
	}
}

func TestStealSplitsStraggler(t *testing.T) {
	c, err := New(testMatrix(), Options{Workers: []string{"http://a:1", "http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = nil
	straggler := c.newLease(0, 10, 0)
	straggler.next = 2
	straggler.worker = "http://a:1"
	c.roster["http://a:1"].busy = 1
	c.active[straggler.id] = straggler

	if !c.stealLocked() {
		t.Fatal("stealLocked refused with an idle worker and an 8-wide straggler")
	}
	if straggler.hi != 6 {
		t.Errorf("victim hi = %d, want 6 (midpoint of [2, 10))", straggler.hi)
	}
	if len(c.pending) != 1 || c.pending[0].lo != 6 || c.pending[0].hi != 10 {
		t.Fatalf("stolen lease = %+v, want [6, 10)", c.pending)
	}
	// Below stealMin nothing is worth splitting.
	straggler.next = straggler.hi - 2
	if c.stealLocked() {
		t.Error("stealLocked split a range narrower than stealMin")
	}
}

// TestConsumeStopsAtStolenBound pins the victim side of a steal: once a
// lease that a steal shrank below the requested bound has merged its last
// owed record, consume returns, although the worker has not ended the
// stream and may take long to compute the thief's first record.
func TestConsumeStopsAtStolenBound(t *testing.T) {
	c, err := New(testMatrix(), Options{Workers: []string{"http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	body, stream := io.Pipe()
	defer stream.Close()
	go func() {
		for i := 0; i < 3; i++ {
			fmt.Fprintf(stream, "{\"index\":%d}\n", i)
		}
	}()
	l := c.newLease(0, 6, 0)
	l.hi = 3 // a steal took [3, 6) after the stream was requested up to 6
	done := make(chan string, 1)
	go func() { done <- c.consume(body, c.roster["http://a:1"], l, 6) }()
	select {
	case cause := <-done:
		if cause != "" || l.next != 3 {
			t.Errorf("consume = %q with next %d, want a clean hand-off at 3", cause, l.next)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consume still reading past the victim's new bound")
	}
}

func TestJoinAndHeartbeatHandler(t *testing.T) {
	c, err := New(testMatrix(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	post := func(path, addr string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(fmt.Sprintf(`{"addr":%q}`, addr)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/v1/fleet/join", "127.0.0.1:9001"); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s", resp.Status)
	}
	// A heartbeat from an unknown worker is a join (coordinator restart).
	if resp := post("/v1/fleet/heartbeat", "127.0.0.1:9002"); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat-join: %s", resp.Status)
	}
	if resp := post("/v1/fleet/join", "not a url://"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed join: %s, want 400", resp.Status)
	}
	c.mu.Lock()
	for _, addr := range []string{"http://127.0.0.1:9001", "http://127.0.0.1:9002"} {
		w, ok := c.roster[addr]
		if !ok || !w.up || !w.dynamic {
			t.Errorf("worker %s not registered as a live dynamic worker (%+v)", addr, w)
		}
	}
	c.mu.Unlock()

	// Peer discovery: the join/heartbeat response lists the other up
	// workers (sorted, requester excluded) for the store-peer fetcher.
	resp := post("/v1/fleet/heartbeat", "127.0.0.1:9001")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: %s", resp.Status)
	}
	var jr struct {
		OK    bool     `json:"ok"`
		Peers []string `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if !jr.OK || len(jr.Peers) != 1 || jr.Peers[0] != "http://127.0.0.1:9002" {
		t.Fatalf("heartbeat response = %+v, want the one other worker as peer", jr)
	}
}

func TestMergerArbitraryOrderAndDuplicates(t *testing.T) {
	const total = 64
	lines := make([][]byte, total)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(`{"index":%d}`, i))
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var out bytes.Buffer
		var seen []int
		mg := newMerger(total, &out, func(rec campaign.Record) { seen = append(seen, rec.Index) })

		absentLo := rng.Intn(total)
		absentHi := absentLo + rng.Intn(total-absentLo)
		order := rng.Perm(total)
		marked := false
		for pos, idx := range order {
			if !marked && pos == total/2 {
				mg.markAbsent(absentLo, absentHi)
				marked = true
			}
			fresh := mg.add(idx, append([]byte(nil), lines[idx]...), campaign.Record{Scenario: campaign.Scenario{Index: idx}})
			if fresh && mg.add(idx, append([]byte(nil), lines[idx]...), campaign.Record{Scenario: campaign.Scenario{Index: idx}}) {
				t.Fatalf("duplicate add of index %d accepted", idx)
			}
		}
		if !marked {
			mg.markAbsent(absentLo, absentHi)
		}
		if !mg.done() {
			t.Fatalf("trial %d: merger not done after all indices fed", trial)
		}

		// Every index outside the absent range must have merged; an absent
		// index may have slipped in only if it was added before the mark.
		// The output must be exactly the merged indices' lines, in strictly
		// increasing index order.
		merged := make(map[int]bool, len(seen))
		for i := 1; i < len(seen); i++ {
			if seen[i] <= seen[i-1] {
				t.Fatalf("trial %d: OnRecord order not strictly increasing: %v", trial, seen)
			}
		}
		for _, idx := range seen {
			merged[idx] = true
		}
		var want bytes.Buffer
		for i := 0; i < total; i++ {
			if i < absentLo || i >= absentHi {
				if !merged[i] {
					t.Fatalf("trial %d: index %d outside the absent range never merged", trial, i)
				}
			}
			if merged[i] {
				want.Write(append(lines[i], '\n'))
			}
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: merged bytes do not match the index-ordered lines", trial)
		}
		if mg.Written() != len(seen) {
			t.Fatalf("trial %d: Written() = %d, records seen %d", trial, mg.Written(), len(seen))
		}
	}
}

func TestParseWorkers(t *testing.T) {
	good := []struct {
		in   string
		want []string
	}{
		{"host:8080", []string{"http://host:8080"}},
		{"a:1,b:2", []string{"http://a:1", "http://b:2"}},
		{" a:1 , b:2 ", []string{"http://a:1", "http://b:2"}},
		{"https://secure:443", []string{"https://secure:443"}},
		{"http://h:1/", []string{"http://h:1"}},
	}
	for _, tc := range good {
		got, err := ParseWorkers(tc.in)
		if err != nil {
			t.Errorf("ParseWorkers(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseWorkers(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseWorkers(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
	bad := []string{
		"",
		",",
		"a:1,",
		"a:1,a:1",
		"a:1,http://a:1", // same address after normalisation
		"ftp://a:1",
		"http://",
		"a:1/path",
		"a:1?q=1",
	}
	for _, in := range bad {
		if got, err := ParseWorkers(in); err == nil {
			t.Errorf("ParseWorkers(%q) = %v, want error", in, got)
		}
	}
}

// TestFleetRunTwice pins the single-use contract.
func TestFleetRunTwice(t *testing.T) {
	w := startWorker(t, serve.Options{Workers: 1})
	c, err := New(campaign.Matrix{Sizes: []int{8}, Seeds: []int64{1}, Models: []string{"lazy"}, Tasks: []campaign.Task{campaign.TaskCoordinate}},
		Options{Workers: []string{w.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("second Run did not fail")
	}
}

// stallWorker streams real records, but before index i of a request for
// [lo, hi) — i == hi meaning after the last record — it asks stall, which
// may block, and stops there when stall says so: it neither writes nor ends
// the response until the request is cancelled or release is closed.
type stallWorker struct {
	lines   [][]byte
	stall   func(lo, hi, i int) bool
	release chan struct{}
}

func (s *stallWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		return
	}
	lo, _ := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, _ := strconv.Atoi(r.URL.Query().Get("hi"))
	for i := lo; i <= hi; i++ {
		if s.stall(lo, hi, i) {
			select {
			case <-r.Context().Done():
			case <-s.release:
			}
			return
		}
		if i < hi {
			w.Write(append(s.lines[i], '\n'))
			w.(http.Flusher).Flush()
		}
	}
}

// TestRunReturnsPastStalledStreams checks that a sweep returns as soon as
// every record is merged, even when a worker's stream would block until it
// is cancelled, and that such a stream is retired, not failed.
func TestRunReturnsPastStalledStreams(t *testing.T) {
	m := testMatrix()
	want := localExport(t, m)
	scs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	lines := exportLines(t, scs)
	total := len(lines)

	run := func(t *testing.T, workers, lease int, stall func(release <-chan struct{}) func(lo, hi, i int) bool) {
		release := make(chan struct{})
		sw := &stallWorker{lines: lines, stall: stall(release), release: release}
		var addrs []string
		for range workers {
			ts := httptest.NewServer(sw)
			t.Cleanup(ts.Close)
			addrs = append(addrs, ts.URL)
		}
		type outcome struct {
			res Result
			err error
		}
		var got bytes.Buffer
		done := make(chan outcome, 1)
		go func() {
			res, err := Run(context.Background(), m, Options{Workers: addrs, LeaseSize: lease, Records: &got})
			done <- outcome{res, err}
		}()
		var out outcome
		select {
		case out = <-done:
			close(release)
		case <-time.After(10 * time.Second):
			t.Error("Run still blocked 10s after the sweep: it waits on a stream it never cancels")
			close(release)
			out = <-done
		}
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Error("fleet export differs from the single-machine export")
		}
		if out.res.Merged != total || len(out.res.Quarantined) != 0 {
			t.Errorf("merged %d of %d, quarantined %v", out.res.Merged, total, out.res.Quarantined)
		}
		for _, ws := range out.res.Workers {
			if ws.Fails != 0 {
				t.Errorf("worker %s counted %d failures; a stream cut after its last owed record is retired", ws.Addr, ws.Fails)
			}
		}
	}

	// The first of two workers holds [0, 6) and, after one record, waits
	// until the other worker has run every other lease and stolen [mid, 6).
	// It then streams up to mid and stalls there: record mid is the thief's,
	// so nothing but a cancellation would ever end that stream.  Six indices
	// leave the victim fewer than stealMin after the split, so no second
	// steal moves its bound again.
	t.Run("steal victim", func(t *testing.T) {
		run(t, 2, 6, func(release <-chan struct{}) func(lo, hi, i int) bool {
			stolen := make(chan int, 1)
			mid := -1 // used by the victim's handler alone
			return func(lo, hi, i int) bool {
				switch {
				case lo > 0 && lo < 6 && i == lo:
					stolen <- lo // the thief asks from the victim's new bound
				case lo == 0 && i == 1:
					select {
					case mid = <-stolen:
					case <-release:
					}
				}
				return lo == 0 && i == mid
			}
		})
	})
	// One worker holds one lease over the whole sweep and, after its last
	// record, never ends the response.
	t.Run("after the last record", func(t *testing.T) {
		run(t, 1, total, func(<-chan struct{}) func(lo, hi, i int) bool {
			return func(_, hi, i int) bool { return i == total }
		})
	})
}
