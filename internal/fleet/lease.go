package fleet

import (
	"context"

	"ringsym/internal/obs"
)

// lease is one grantable unit of work: the scenario-index range [next, hi)
// still owed, where next is the merge watermark advanced as the worker's
// stream comes back.  lo and hi are fixed when the lease is created (a failed
// remainder becomes a new lease); lo is kept only for reporting.  next,
// cancel and lastProgress are guarded by the coordinator's mutex.
type lease struct {
	id       int
	lo       int
	hi       int
	next     int // first index not yet streamed back
	attempts int // failed attempts on [next, hi) so far

	worker       string
	cancel       context.CancelFunc // cancels the in-flight stream, if any
	lastProgress int64              // obs.Now() of the last record received
}

func (c *Coordinator) newLease(lo, hi, attempts int) *lease {
	c.nextLeaseID++
	return &lease{id: c.nextLeaseID, lo: lo, hi: hi, next: lo, attempts: attempts, cancel: func() {}}
}

// endLeaseLocked retires an active lease after its stream closed.  A fully
// streamed lease is done; a short stream either re-queues the remainder for
// another attempt or — after maxAttempts failures — quarantines it so the
// sweep can finish around the hole.
func (c *Coordinator) endLeaseLocked(w *worker, l *lease, cause string) {
	delete(c.active, l.id)
	w.busy--
	l.cancel = func() {}
	if l.next >= l.hi {
		w.completed++
		if obs.On() {
			obs.Emit(obs.Event{Type: obs.FleetLeaseDone, Level: obs.LevelInfo, Worker: w.addr, Lo: l.lo, Hi: l.hi})
		}
		c.kickLoop()
		return
	}
	w.fails++
	l.attempts++
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.FleetLeaseFail, Level: obs.LevelWarn, Worker: w.addr, Lo: l.next, Hi: l.hi, Err: cause})
	}
	if l.attempts >= c.opts.maxAttempts {
		c.quarantined = append(c.quarantined, Range{Lo: l.next, Hi: l.hi})
		c.merger.markAbsent(l.next, l.hi)
		if obs.On() {
			obs.Emit(obs.Event{Type: obs.FleetLeaseQuarantine, Level: obs.LevelError, Worker: w.addr, Lo: l.next, Hi: l.hi, Err: cause})
		}
	} else {
		c.pending = append(c.pending, c.newLease(l.next, l.hi, l.attempts))
	}
	c.kickLoop()
}
