package fleet

import (
	"io"

	"ringsym/internal/campaign"
	"ringsym/internal/obs"
)

// merger reassembles per-lease record streams into scenario-index order.
//
// Byte-identity is achieved by construction, not by re-serialisation: the
// merger keeps the raw JSONL line each worker streamed (workers run the same
// exporter a local sweep does, so their lines are already the canonical
// encoding) and writes those bytes verbatim once the index-order watermark
// reaches them.  Records are parsed only for the OnRecord callback and the
// scenario.finish events — never re-marshalled onto the output path.
//
// Out-of-order arrival is the normal case (leases complete independently),
// so lines park in a pending map until the watermark catches up — the same
// shape as campaign.OrderedWriter, one level up.  Every index is leased to
// one worker at a time and re-leased only past its lease's watermark, so a
// duplicate index means a broken stream; it is dropped on arrival all the
// same (first write wins, safe because records are pure functions of their
// scenario).
// Quarantined ranges are marked absent so the watermark can pass over the
// hole and the sweep can finish around it.
type merger struct {
	total   int
	next    int // watermark: first index not yet written or skipped
	written int
	out     io.Writer
	onRec   func(campaign.Record)

	lines  map[int][]byte
	recs   map[int]campaign.Record
	absent map[int]bool

	err error // first write error; stops the merge and ends Coordinator.Run
}

func newMerger(total int, out io.Writer, onRec func(campaign.Record)) *merger {
	return &merger{
		total:  total,
		out:    out,
		onRec:  onRec,
		lines:  make(map[int][]byte),
		recs:   make(map[int]campaign.Record),
		absent: make(map[int]bool),
	}
}

// add accepts one record line from a worker stream.  It reports whether the
// index was fresh (false for duplicates and out-of-range indices, which are
// dropped).  line must be the worker's raw JSONL bytes without the trailing
// newline; the merger owns it after the call.  Callers hold the
// coordinator's mutex.
func (mg *merger) add(index int, line []byte, rec campaign.Record) bool {
	if index < mg.next || index >= mg.total {
		return false
	}
	if _, dup := mg.lines[index]; dup || mg.absent[index] {
		return false
	}
	mg.lines[index] = line
	mg.recs[index] = rec
	mg.drain()
	return true
}

// markAbsent records that [lo, hi) will never arrive (quarantined), letting
// the watermark advance past the hole.  Callers hold the coordinator's
// mutex.
func (mg *merger) markAbsent(lo, hi int) {
	for i := lo; i < hi; i++ {
		if i >= mg.next && !mg.absent[i] {
			mg.absent[i] = true
			delete(mg.lines, i)
			delete(mg.recs, i)
		}
	}
	mg.drain()
}

// drain advances the watermark, writing parked lines in index order.
func (mg *merger) drain() {
	for mg.next < mg.total && mg.err == nil {
		if mg.absent[mg.next] {
			delete(mg.absent, mg.next)
			mg.next++
			continue
		}
		line, ok := mg.lines[mg.next]
		if !ok {
			return
		}
		delete(mg.lines, mg.next)
		rec := mg.recs[mg.next]
		delete(mg.recs, mg.next)
		if mg.out != nil {
			if _, mg.err = mg.out.Write(append(line, '\n')); mg.err != nil {
				return
			}
		}
		mg.written++
		mg.next++
		// The runner's own events, so downstream consumers (ringfarm top,
		// NDJSON sinks) see a fleet sweep in the same vocabulary as a local
		// one; wall time stayed on the worker, so wall_us is omitted.
		if obs.On() {
			campaign.EmitScenarioDone(rec)
			campaign.EmitCheckpoint(mg.written, mg.total)
		}
		if mg.onRec != nil {
			mg.onRec(rec)
		}
	}
}

// done reports whether every index was written or skipped.
func (mg *merger) done() bool { return mg.next >= mg.total }

// Written returns the number of record lines merged into the output.
func (mg *merger) Written() int { return mg.written }
