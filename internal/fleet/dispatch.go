package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/obs"
)

// maxLineBytes bounds one line a worker streams back.  A record line is a
// few hundred bytes; the bound caps what a broken or hostile worker can make
// the coordinator buffer before the line fails to scan and the lease fails.
const maxLineBytes = 1 << 20

// runLease drives one granted lease to its end and retires it.  It owns the
// lease from grant to endLeaseLocked; the coordinator only touches l.hi (a
// steal) and l.cancel/l.lastProgress (the stall watchdog) in between, all
// under c.mu.
func (c *Coordinator) runLease(ctx context.Context, w *worker, l *lease) {
	cause, dead := c.streamLease(ctx, w, l)
	c.mu.Lock()
	defer c.mu.Unlock()
	if dead && ctx.Err() == nil {
		// A transport-level failure marks the worker down: whether the
		// daemon died or the network to it did, granting it more work
		// before a successful /healthz probe would just burn attempts.  An
		// HTTP-level error (non-200 status) does not — the daemon is alive
		// and answering; only that lease's range is suspect.
		c.markDownLocked(w, cause)
	}
	c.endLeaseLocked(w, l, cause)
}

// streamLease POSTs the lease range to the worker and merges the record
// stream back.  It returns cause == "" when the remaining range [next, hi)
// was fully streamed (including the hi==next case after a steal took
// everything) and a failure cause otherwise; dead reports whether the
// failure was transport-level (connection or stream death, as opposed to an
// HTTP error from a live daemon).  429 throttling loops internally with
// jittered backoff rather than counting as failure.
func (c *Coordinator) streamLease(ctx context.Context, w *worker, l *lease) (cause string, dead bool) {
	for {
		c.mu.Lock()
		lo, hi := l.next, l.hi
		c.mu.Unlock()
		if lo >= hi {
			return "", false
		}

		// Arm the stall watchdog's cancel for this stream.
		sctx, cancel := context.WithCancel(ctx)
		url := fmt.Sprintf("%s/v1/campaign?lo=%d&hi=%d", w.addr, lo, hi)
		req, err := http.NewRequestWithContext(sctx, http.MethodPost, url, bytes.NewReader(c.matrixBody))
		if err != nil {
			cancel()
			return "building request: " + err.Error(), false
		}
		req.Header.Set("Content-Type", "application/json")
		c.mu.Lock()
		l.cancel = cancel
		l.lastProgress = obs.Now()
		c.mu.Unlock()

		resp, err := c.client.Do(req)
		if err != nil {
			cancel()
			return "request: " + err.Error(), true
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			if !c.backoff(ctx, resp.Header.Get("Retry-After")) {
				return "cancelled during throttle backoff", false
			}
			continue // throttling is load-shedding, not lease failure
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			return fmt.Sprintf("worker returned %d: %s", resp.StatusCode, bytes.TrimSpace(body)), false
		}

		cause = c.consume(resp.Body, w, l, hi)
		resp.Body.Close()
		cancel()
		c.mu.Lock()
		finished := l.next >= l.hi
		c.mu.Unlock()
		if finished {
			return "", false
		}
		// Every consume failure is stream-level: the connection died, the
		// stream truncated, or the worker spoke garbage — all reasons to
		// stop granting to this worker until a probe clears it.
		return cause, true
	}
}

// consume reads one response stream, requested up to hi, line by line,
// merging each record.  The worker streams its range in index order (serve
// uses OrderedWriter), so the lease watermark advances contiguously.  A
// steal victim hands off the split range mid-stream: once a lease whose hi
// a steal shrank below the requested hi has merged its last owed record,
// reading stops without error, without waiting for the worker to compute
// the thief's first record.  A lease that was not shrunk reads to EOF, so
// its keep-alive connection is reused.
func (c *Coordinator) consume(body io.Reader, w *worker, l *lease, hi int) string {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var rec campaign.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return "undecodable record line: " + err.Error()
		}
		line := append([]byte(nil), raw...)
		c.mu.Lock()
		if l.next >= l.hi {
			// Everything owed is merged; past it the stream is the thief's
			// share or an overrun.  Abandon it.
			c.mu.Unlock()
			return ""
		}
		if rec.Index != l.next {
			c.mu.Unlock()
			return fmt.Sprintf("out-of-order stream: got index %d, want %d", rec.Index, l.next)
		}
		c.merger.add(rec.Index, line, rec)
		l.next = rec.Index + 1
		l.lastProgress = obs.Now()
		w.records++
		handedOff := l.next >= l.hi && l.hi < hi
		if c.merger.done() {
			c.kickLoop() // the sweep is over even if this stream has not ended
		}
		c.mu.Unlock()
		if handedOff {
			return ""
		}
	}
	if err := sc.Err(); err != nil {
		return "stream: " + err.Error()
	}
	return "short stream"
}

// backoff sleeps a jittered throttle delay, preferring the worker's
// Retry-After hint.  Returns false when the context ended first.  The
// jitter source is seeded (Options.JitterSeed) and only shapes retry
// timing — artefact bytes are independent of it.
func (c *Coordinator) backoff(ctx context.Context, retryAfter string) bool {
	d := c.opts.retryBase
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d)))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
