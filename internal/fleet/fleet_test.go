package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// goldenMatrix is the 216-scenario grid that testdata/golden pins (ringfarm
// -sizes 8,12,16 -seeds 1:3).
func goldenMatrix() campaign.Matrix {
	return campaign.Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2, 3}}
}

// localExport runs the matrix single-machine and returns the canonical JSONL
// bytes every fleet configuration must reproduce.
func localExport(t testing.TB, m campaign.Matrix) []byte {
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
func startWorker(t testing.TB, opts serve.Options) *httptest.Server {
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

// BenchmarkFleetGoldenGrid times one pass of the golden grid through Run on
// two in-process one-worker ringd servers, cache off, and checks every
// pass's merged count and bytes against the local export (which
// TestGoldenSweep pins to golden/sweep/records.jsonl): the fleet counterpart
// of campaign's BenchmarkGoldenGrid, so the difference is the fleet tax
// (go test -run '^$' -bench FleetGoldenGrid -benchmem ./internal/fleet).
func BenchmarkFleetGoldenGrid(b *testing.B) {
	want := localExport(b, goldenMatrix())
	roster := []string{startWorker(b, serve.Options{Workers: 1}).URL, startWorker(b, serve.Options{Workers: 1}).URL}
	var got bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		got.Reset()
		res, err := Run(context.Background(), goldenMatrix(), Options{Workers: roster, Records: &got})
		if err != nil {
			b.Fatal(err)
		}
		if res.Merged != 216 || res.Total != 216 {
			b.Fatalf("merged %d of %d records, want 216", res.Merged, res.Total)
		}
		if !bytes.Equal(got.Bytes(), want) {
			b.Fatal("merged records differ from the local export of the golden grid")
		}
	}
}

// TestCarveLeases pins carveLocked's sequence: contiguous leases that cover
// [0, total) exactly once, sizes that never grow and stay at least minLease
// but for a final remainder, no lease wider than the first one, at most
// max(minLease, ⌈total/(2·workers)⌉), and Options.LeaseSize as a cap on
// every lease.
func TestCarveLeases(t *testing.T) {
	carve := func(t *testing.T, m campaign.Matrix, workers, leaseSize int) []int {
		t.Helper()
		var roster []string
		for i := range workers {
			roster = append(roster, fmt.Sprintf("http://w%d:1", i))
		}
		c, err := New(m, Options{Workers: roster, LeaseSize: leaseSize})
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		var sizes []int
		end := 0
		for l := c.carveLocked(); l != nil; l = c.carveLocked() {
			if l.lo != end || l.next != l.lo || l.hi <= l.lo {
				t.Fatalf("lease [%d, %d) next %d does not continue the carve at %d", l.lo, l.hi, l.next, end)
			}
			sizes = append(sizes, l.hi-l.lo)
			end = l.hi
		}
		if end != c.total {
			t.Fatalf("leases cover [0, %d) of [0, %d)", end, c.total)
		}
		floor, widest := minLease, max(minLease, (c.total+2*workers-1)/(2*workers))
		if leaseSize > 0 {
			floor, widest = min(floor, leaseSize), min(widest, leaseSize)
		}
		for i, size := range sizes {
			switch {
			case size > widest:
				t.Errorf("workers %d cap %d: lease %d is %d wide, above %d (sizes %v)", workers, leaseSize, i, size, widest, sizes)
			case i > 0 && size > sizes[i-1]:
				t.Errorf("workers %d cap %d: lease %d grew to %d (sizes %v)", workers, leaseSize, i, size, sizes)
			case size < floor && i != len(sizes)-1:
				t.Errorf("workers %d cap %d: lease %d is %d wide before the last (sizes %v)", workers, leaseSize, i, size, sizes)
			case leaseSize > 0 && size > leaseSize:
				t.Errorf("workers %d cap %d: lease %d is %d wide (sizes %v)", workers, leaseSize, i, size, sizes)
			}
		}
		return sizes
	}

	// The golden grid on two workers: each lease takes half of the unleased
	// tail, rounded up, but no more than the first lease's quarter of the
	// grid.
	want := []int{54, 54, 54, 27, 14, 7, 3, 2, 1}
	if got := carve(t, goldenMatrix(), 2, 0); !slices.Equal(got, want) {
		t.Errorf("golden grid on two workers carved %v, want %v", got, want)
	}
	for _, m := range []campaign.Matrix{goldenMatrix(), testMatrix()} {
		for _, workers := range []int{1, 2, 3, 7} {
			for _, leaseSize := range []int{0, 1, 3, 64} {
				sizes := carve(t, m, workers, leaseSize)
				if leaseSize == 1 && slices.ContainsFunc(sizes, func(n int) bool { return n != 1 }) {
					t.Errorf("cap 1 carved %v, want every lease 1 wide", sizes)
				}
			}
		}
	}
}

// askCounter forwards to a worker's handler and counts its /v1/campaign
// requests and their hi−lo sum: the leases and scenario indices asked of
// the worker.
type askCounter struct {
	asked, requests *atomic.Int64
	h               http.Handler
}

func (a askCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/campaign" {
		lo, _ := strconv.Atoi(r.URL.Query().Get("lo"))
		hi, _ := strconv.Atoi(r.URL.Query().Get("hi"))
		a.asked.Add(int64(hi - lo))
		a.requests.Add(1)
	}
	a.h.ServeHTTP(w, r)
}

// TestFleetLeasesEachIndexOnce runs the golden grid on two workers with one
// pool worker each (ringbench's grid-fleet shape) and checks that every pass
// asks the workers for each scenario index exactly once, in the 9 requests
// of TestCarveLeases's sequence, and merges the single-machine export's
// bytes.
func TestFleetLeasesEachIndexOnce(t *testing.T) {
	m := goldenMatrix()
	want := localExport(t, m)
	var asked, requests atomic.Int64
	var addrs []string
	for range 2 {
		pool := serve.New(serve.Options{Workers: 1})
		ts := httptest.NewServer(askCounter{asked: &asked, requests: &requests, h: pool.Handler()})
		t.Cleanup(func() {
			ts.Close()
			pool.Close()
		})
		addrs = append(addrs, ts.URL)
	}
	for pass := range 10 {
		asked.Store(0)
		requests.Store(0)
		var got bytes.Buffer
		res, err := Run(context.Background(), m, Options{Workers: addrs, Records: &got})
		if err != nil {
			t.Fatal(err)
		}
		if n := asked.Load(); n != int64(res.Total) {
			t.Errorf("pass %d asked the workers for %d indices, want %d", pass, n, res.Total)
		}
		if n := requests.Load(); n != 9 {
			t.Errorf("pass %d sent %d /v1/campaign requests, want 9", pass, n)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("pass %d: fleet export differs from the single-machine export", pass)
		}
	}
}

// TestRunLeavesNoConnection checks that a finished Run holds no keep-alive
// to a worker, with the default client and with a caller's: whether the last
// stream ended cleanly or was cut when Run returned depends on timing, and
// neither may leave a connection open.
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

	// The worker dies after the first line of a lease.  The first lease it
	// is granted is carved at least minLease = 2 wide, so at least one cut
	// lands inside the range the coordinator still expects.
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

// strayWorker streams the first record of its first lease and then, in
// place of the second, a record with an index outside the lease; after that
// it serves real records.  It closes probed on its first /healthz, so a test
// can tell when the coordinator re-probed it.
type strayWorker struct {
	lines     [][]byte
	stray     func(hi int) int // the index streamed out of the lease [lo, hi)
	strayed   atomic.Bool
	probed    chan struct{}
	probeOnce sync.Once
}

func (s *strayWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		s.probeOnce.Do(func() { close(s.probed) })
		w.WriteHeader(http.StatusOK)
		return
	}
	lo, _ := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, _ := strconv.Atoi(r.URL.Query().Get("hi"))
	for i, line := range s.lines[lo:hi] {
		if i == 1 && s.strayed.CompareAndSwap(false, true) {
			fmt.Fprintf(w, "{\"index\":%d}\n", s.stray(hi))
			return
		}
		w.Write(append(line, '\n'))
		w.(http.Flusher).Flush()
	}
}

// TestFleetSurvivesOutOfLeaseIndex runs a whole sweep next to a worker that
// streams an index outside its lease, past the lease's end and past the
// index space.  The lease fails, the worker goes down and is re-probed, the
// unstreamed remainder is re-leased, and the export is the single-machine
// one with nothing quarantined.  The good worker holds its first lease until
// the stray one is probed, so the probe is part of every run.
func TestFleetSurvivesOutOfLeaseIndex(t *testing.T) {
	m := testMatrix()
	want := localExport(t, m)
	scs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	lines := exportLines(t, scs)
	total := len(lines)

	for name, stray := range map[string]func(hi int) int{
		"past hi":    func(hi int) int { return hi },
		"past total": func(int) int { return total },
	} {
		t.Run(name, func(t *testing.T) {
			sw := &strayWorker{lines: lines, stray: stray, probed: make(chan struct{})}
			bad := httptest.NewServer(sw)
			defer bad.Close()
			pool := serve.New(serve.Options{Workers: 2})
			defer pool.Close()
			good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-sw.probed:
					pool.Handler().ServeHTTP(w, r)
				case <-r.Context().Done():
				}
			}))
			defer good.Close()

			sub := obs.Default.Subscribe(obs.SubOptions{Buffer: 1 << 12, Types: []string{"fleet"}})
			defer sub.Close()
			var got bytes.Buffer
			res, err := Run(context.Background(), m, Options{
				Workers:       []string{bad.URL, good.URL},
				Records:       &got,
				probeInterval: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Error("fleet export with a stray index differs from the single-machine export")
			}
			if res.Merged != res.Total || len(res.Quarantined) != 0 {
				t.Errorf("merged %d of %d, quarantined %v", res.Merged, res.Total, res.Quarantined)
			}

			// Events arrive in emission order: the re-lease must follow the
			// fail, and the revival the down.
			var fail *obs.Event
			down, up, released := false, false, false
			for {
				ev, ok := sub.TryNext()
				if !ok {
					break
				}
				switch {
				case ev.Type == obs.FleetLeaseFail && ev.Worker == bad.URL && fail == nil:
					fail = &ev
				case ev.Type == obs.FleetWorkerDown && ev.Worker == bad.URL:
					down = true
				case ev.Type == obs.FleetWorkerUp && ev.Worker == bad.URL && down:
					up = true
				case ev.Type == obs.FleetLeaseGrant && fail != nil && ev.Lo == fail.Lo && ev.Hi == fail.Hi:
					released = true
				}
			}
			switch {
			case fail == nil:
				t.Fatal("no fleet.lease.fail event from the stray worker")
			case !strings.Contains(fail.Err, "out-of-order"):
				t.Errorf("lease failed with %q, want an out-of-order stream", fail.Err)
			case !down || !up:
				t.Errorf("stray worker down %v, then up again %v", down, up)
			case !released:
				t.Errorf("the remainder [%d, %d) was never re-leased", fail.Lo, fail.Hi)
			}
		})
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

// TestConsumeJumpPastBoundFails: a stream that skips indices of its lease is
// a failure with a cause, even when the index it jumps to lies past the
// lease.
func TestConsumeJumpPastBoundFails(t *testing.T) {
	c, err := New(testMatrix(), Options{Workers: []string{"http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	l := c.newLease(0, 4, 0)
	cause := c.consume(strings.NewReader("{\"index\":0}\n{\"index\":9}\n"), c.roster["http://a:1"], l)
	if cause == "" || l.next != 1 {
		t.Fatalf("consume = %q with next %d, want a failure cause at next 1", cause, l.next)
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
	// The roster is the fleet: a coordinator without one is an error too.
	if _, err := New(testMatrix(), Options{}); err == nil {
		t.Error("New with no workers succeeded")
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

// stallWorker streams real records but, after the last record of the
// sweep, neither writes nor ends the response until the request is cancelled
// or release is closed.
type stallWorker struct {
	lines   [][]byte
	release chan struct{}
}

func (s *stallWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		return
	}
	lo, _ := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, _ := strconv.Atoi(r.URL.Query().Get("hi"))
	for _, line := range s.lines[lo:hi] {
		w.Write(append(line, '\n'))
		w.(http.Flusher).Flush()
	}
	if hi == len(s.lines) {
		select {
		case <-r.Context().Done():
		case <-s.release:
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

	t.Run("after the last record", func(t *testing.T) {
		release := make(chan struct{})
		sw := &stallWorker{lines: lines, release: release}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		type outcome struct {
			res Result
			err error
		}
		var got bytes.Buffer
		done := make(chan outcome, 1)
		go func() {
			res, err := Run(context.Background(), m, Options{Workers: []string{ts.URL}, Records: &got})
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
	})
}
