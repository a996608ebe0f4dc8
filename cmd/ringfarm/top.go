package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"ringsym/internal/obs"
)

// topWindowSeconds is the sliding window of the rate and latency statistics:
// long enough to smooth scheduling jitter, short enough to track a sweep's
// phase changes.
const topWindowSeconds = 10

// topView folds a structured-event stream (internal/obs) into the statistics
// the live display renders: completion progress and ETA, windowed throughput
// with exact wall-time percentiles, cache service ratio, per-task breakdown
// and the engine's rounds-per-crossing.  It is fed and rendered from one
// goroutine; callers that consume a bus concurrently serialise around it.
type topView struct {
	total      int
	done       int
	failed     int
	unsolvable int
	perTask    map[string]int

	cacheMisses, cacheHits, cacheDedups int

	// Cumulative engine totals from the latest engine.leap sample, plus a
	// window of per-sample round deltas for the live rounds/sec.
	rounds, crossings int64
	roundsWin         *obs.Window

	// finishWin holds scenario completions; the sample value is the
	// scenario's wall time in microseconds, so Rate is scenarios/sec and the
	// percentiles are wall-time percentiles.
	finishWin *obs.Window

	// Per-worker rows from fleet.* events (fleet sweeps only; empty and
	// unrendered for local ones).  A worker holds at most one lease at a
	// time, granted as [Lo, Hi): a done lease adds Hi − Lo records, and a
	// failed attempt adds the records merged before it, its fail event's
	// Lo (the first index not streamed back) less the granted Lo.
	workers     map[string]*workerRow
	quarantined int

	firstNanos, lastNanos int64
}

// workerRow is one fleet worker's line in the live view.
type workerRow struct {
	up      bool
	records int
	leases  int
	fails   int
	grantLo int // Lo of the worker's current (or last) lease
}

func newTopView() *topView {
	return &topView{
		perTask:   make(map[string]int),
		roundsWin: obs.NewWindow(topWindowSeconds),
		finishWin: obs.NewWindow(topWindowSeconds),
		workers:   make(map[string]*workerRow),
	}
}

// worker returns (creating if needed) the row for a fleet worker.
func (v *topView) worker(addr string) *workerRow {
	w, ok := v.workers[addr]
	if !ok {
		w = &workerRow{}
		v.workers[addr] = w
	}
	return w
}

// observe folds one event into the view.
func (v *topView) observe(ev obs.Event) {
	if v.firstNanos == 0 {
		v.firstNanos = ev.Nanos
	}
	if ev.Nanos > v.lastNanos {
		v.lastNanos = ev.Nanos
	}
	switch ev.Type {
	case obs.CampaignStart:
		v.total = ev.Total
	case obs.CampaignFinish:
		v.total = ev.Total
	case obs.ScenarioFinish, obs.ScenarioError:
		v.done++
		v.perTask[ev.Task]++
		switch {
		case ev.Type == obs.ScenarioError:
			v.failed++
		case ev.Status == "unsolvable":
			v.unsolvable++
		}
		switch ev.Cache {
		case "miss":
			v.cacheMisses++
		case "hit":
			v.cacheHits++
		case "dedup":
			v.cacheDedups++
		}
		v.finishWin.Add(ev.Nanos, int(ev.WallMicros))
	case obs.FleetWorkerUp:
		v.worker(ev.Worker).up = true
	case obs.FleetWorkerDown:
		v.worker(ev.Worker).up = false
	case obs.FleetLeaseGrant:
		v.worker(ev.Worker).grantLo = ev.Lo
	case obs.FleetLeaseDone:
		w := v.worker(ev.Worker)
		w.leases++
		w.records += ev.Hi - ev.Lo
	case obs.FleetLeaseFail:
		w := v.worker(ev.Worker)
		w.fails++
		w.records += ev.Lo - w.grantLo
	case obs.FleetLeaseQuarantine:
		v.quarantined += ev.Hi - ev.Lo
	case obs.EngineLeap:
		// Samples carry cumulative totals; the delta between consecutive
		// samples is the work done since, windowed for the live rate.
		if v.rounds > 0 && ev.Rounds > v.rounds {
			v.roundsWin.Add(ev.Nanos, int(ev.Rounds-v.rounds))
		}
		if ev.Rounds > v.rounds {
			v.rounds = ev.Rounds
		}
		if ev.Crossings > v.crossings {
			v.crossings = ev.Crossings
		}
	}
}

// render writes one frame: a cleared screen followed by the current
// statistics.  The time base is the event stream's own monotonic clock, so a
// remote daemon's frame is consistent with the daemon's timestamps.
func (v *topView) render(w io.Writer, source string) {
	now := v.lastNanos
	fin := v.finishWin.Stats(now)
	rw := v.roundsWin.Stats(now)

	var b strings.Builder
	b.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
	fmt.Fprintf(&b, "ringfarm top — %s\n\n", source)

	progress := fmt.Sprintf("%d scenarios done", v.done)
	if v.total > 0 {
		progress = fmt.Sprintf("%d/%d scenarios done (%.0f%%)", v.done, v.total, 100*float64(v.done)/float64(v.total))
		if left := v.total - v.done; left > 0 && fin.Rate > 0 {
			progress += fmt.Sprintf("  ETA %s", (time.Duration(float64(left)/fin.Rate*1e9) * time.Nanosecond).Round(time.Second))
		}
	}
	fmt.Fprintf(&b, "  %s  ok=%d failed=%d unsolvable=%d\n", progress, v.done-v.failed-v.unsolvable, v.failed, v.unsolvable)

	fmt.Fprintf(&b, "  throughput  %.1f scen/s (last %ds)   wall p50 %s  p90 %s  p99 %s\n",
		fin.Rate, topWindowSeconds,
		microsDuration(fin.P50), microsDuration(fin.P90), microsDuration(fin.P99))

	if served := v.cacheHits + v.cacheDedups; served+v.cacheMisses > 0 {
		fmt.Fprintf(&b, "  cache       %.1f%% served from symmetry (miss %d, hit %d, dedup %d)\n",
			100*float64(served)/float64(served+v.cacheMisses), v.cacheMisses, v.cacheHits, v.cacheDedups)
	}

	if v.crossings > 0 {
		fmt.Fprintf(&b, "  engine      %s rounds/s   %s rounds / %s crossings (%.1f rounds per crossing)\n",
			humanCount(float64(rw.Sum)/topWindowSeconds),
			humanCount(float64(v.rounds)), humanCount(float64(v.crossings)),
			float64(v.rounds)/float64(v.crossings))
	}

	if len(v.workers) > 0 {
		addrs := make([]string, 0, len(v.workers))
		for a := range v.workers {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		b.WriteString("\n  workers\n")
		for _, a := range addrs {
			wr := v.workers[a]
			state := "up"
			if !wr.up {
				state = "DOWN"
			}
			fmt.Fprintf(&b, "    %-28s %-4s  %6d records  %3d leases  %2d fails\n",
				a, state, wr.records, wr.leases, wr.fails)
		}
		if v.quarantined > 0 {
			fmt.Fprintf(&b, "    QUARANTINED: %d scenario indices abandoned\n", v.quarantined)
		}
	}

	if len(v.perTask) > 0 {
		tasks := make([]string, 0, len(v.perTask))
		for t := range v.perTask {
			tasks = append(tasks, t)
		}
		sort.Strings(tasks)
		b.WriteString("  tasks      ")
		for _, t := range tasks {
			fmt.Fprintf(&b, " %s=%d", t, v.perTask[t])
		}
		b.WriteString("\n")
	}
	io.WriteString(w, b.String())
}

// microsDuration renders a microsecond sample as a rounded duration.
func microsDuration(us int) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.String()
}

// humanCount renders a count with a k/M/G suffix.
func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}

// topRefresh is the display redraw cadence.
const topRefresh = 500 * time.Millisecond

// runTop is the `ringfarm top` subcommand: it attaches to a running ringd's
// GET /v1/events NDJSON stream and renders the live view until interrupted.
func runTop(args []string) error {
	fs := flag.NewFlagSet("ringfarm top", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080", "base URL of the ringd daemon to watch")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ringfarm top [-url http://host:port]\n\nwatch a ringd daemon's live event stream\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(*url, "/")+"/v1/events?level=debug", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", req.URL, resp.Status)
	}

	events := make(chan obs.Event, 256)
	scanErr := make(chan error, 1)
	go func() {
		defer close(events)
		scan := bufio.NewScanner(resp.Body)
		for scan.Scan() {
			var ev obs.Event
			if err := json.Unmarshal(scan.Bytes(), &ev); err != nil {
				scanErr <- fmt.Errorf("bad event line %q: %w", scan.Text(), err)
				return
			}
			select {
			case events <- ev:
			case <-ctx.Done():
				return
			}
		}
		scanErr <- scan.Err()
	}()

	view := newTopView()
	ticker := time.NewTicker(topRefresh)
	defer ticker.Stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				view.render(os.Stdout, *url)
				select {
				case err := <-scanErr:
					if err != nil && ctx.Err() == nil {
						return err
					}
				default:
				}
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("event stream from %s ended", *url)
			}
			view.observe(ev)
		case <-ticker.C:
			view.render(os.Stdout, *url)
		case <-ctx.Done():
			return nil
		}
	}
}

// startLocalTop renders the live view from the in-process event bus while a
// local sweep runs (the -top flag).  The returned stop function (idempotent —
// the caller both defers it and invokes it before printing the summary)
// detaches the subscription and draws a final frame, leaving the cursor below
// it for the summary output that follows.
func startLocalTop(ctx context.Context) (stop func()) {
	sub := obs.Default.Subscribe(obs.SubOptions{Buffer: 1 << 14})
	view := newTopView()
	done := make(chan struct{})
	loopCtx, cancel := context.WithCancel(ctx)
	go func() {
		defer close(done)
		ticker := time.NewTicker(topRefresh)
		defer ticker.Stop()
		for {
			ev, err := sub.Next(loopCtx)
			if err != nil {
				return
			}
			view.observe(ev)
			select {
			case <-ticker.C:
				view.render(os.Stderr, "local sweep")
			default:
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
			// Drain what the loop had not consumed, then draw the final frame.
			for {
				ev, ok := sub.TryNext()
				if !ok {
					break
				}
				view.observe(ev)
			}
			sub.Close()
			view.render(os.Stderr, "local sweep")
			fmt.Fprintln(os.Stderr)
		})
	}
}

// startEventLog streams every bus event to an NDJSON file (the -events flag):
// the same wire format GET /v1/events serves, usable as a durable trace of a
// sweep.  The returned stop function drains the subscription, flushes and
// closes the file, and reports how many events overflowed the sink's buffer.
func startEventLog(ctx context.Context, path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sub := obs.Default.Subscribe(obs.SubOptions{Buffer: 1 << 16})
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	done := make(chan error, 1)
	loopCtx, cancel := context.WithCancel(ctx)
	go func() {
		for {
			ev, err := sub.Next(loopCtx)
			if err != nil {
				done <- nil
				return
			}
			if err := enc.Encode(ev); err != nil {
				done <- err
				return
			}
			// Flush per event: the log must be tail-able while the sweep
			// runs (CI watches it to time a mid-sweep worker kill), and the
			// bounded subscription already decouples us from the emitters,
			// so buffering here buys nothing but staleness.
			if err := bw.Flush(); err != nil {
				done <- err
				return
			}
		}
	}()
	return func() error {
		cancel()
		werr := <-done
		for {
			ev, ok := sub.TryNext()
			if !ok {
				break
			}
			if err := enc.Encode(ev); err != nil && werr == nil {
				werr = err
			}
		}
		sub.Close()
		if dropped := sub.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "ringfarm: event log dropped %d events (sink slower than the sweep)\n", dropped)
		}
		if err := bw.Flush(); err != nil && werr == nil {
			werr = err
		}
		if err := f.Close(); err != nil && werr == nil {
			werr = err
		}
		return werr
	}, nil
}
