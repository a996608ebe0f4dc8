package obs

import "sort"

// Percentile returns the nearest-rank p-th percentile of a value→count
// histogram holding count samples: the smallest value v such that at least
// ceil(p/100 · count) samples are <= v.  The telemetry windows below and
// the campaign aggregator (internal/campaign) share this one implementation.
func Percentile(hist map[int]int, count, p int) int {
	if count <= 0 {
		return 0
	}
	rank := (p*count + 99) / 100
	if rank < 1 {
		rank = 1
	}
	values := make([]int, 0, len(hist))
	for v := range hist {
		values = append(values, v)
	}
	sort.Ints(values)
	seen := 0
	for _, v := range values {
		seen += hist[v]
		if seen >= rank {
			return v
		}
	}
	return values[len(values)-1]
}

// Window aggregates a value stream over a sliding time window of one-second
// buckets: event rate, value sum and exact value percentiles over the last
// len(buckets) seconds.  Memory is bounded by the number of buckets times the
// number of distinct values per bucket, not by the event count — the same
// value→count histogram trick the campaign aggregator uses.
//
// A Window is fed and read from one goroutine (the top view's event loop);
// it is not safe for concurrent use.
type Window struct {
	width   int64 // bucket width in nanos
	buckets []wbucket
}

type wbucket struct {
	epoch int64 // bucket index (nanos / width); -1 = never used
	n     int
	sum   int64
	hist  map[int]int
}

// windowBucketNanos is the bucket width: one second.
const windowBucketNanos = int64(1e9)

// NewWindow returns a sliding window spanning the given number of seconds
// (minimum 1).
func NewWindow(seconds int) *Window {
	if seconds < 1 {
		seconds = 1
	}
	w := &Window{width: windowBucketNanos, buckets: make([]wbucket, seconds)}
	for i := range w.buckets {
		w.buckets[i].epoch = -1
		w.buckets[i].hist = make(map[int]int)
	}
	return w
}

// Add folds one sample with the given monotonic timestamp into the window.
func (w *Window) Add(nanos int64, value int) {
	b := w.bucket(nanos)
	if b == nil {
		return // older than the window
	}
	b.n++
	b.sum += int64(value)
	b.hist[value]++
}

// bucket returns the (recycled) bucket for the timestamp, or nil when the
// timestamp has already slid out of the window.
func (w *Window) bucket(nanos int64) *wbucket {
	epoch := nanos / w.width
	b := &w.buckets[epoch%int64(len(w.buckets))]
	if b.epoch == epoch {
		return b
	}
	if b.epoch > epoch {
		return nil
	}
	b.epoch = epoch
	b.n = 0
	b.sum = 0
	clear(b.hist)
	return b
}

// WindowStats is a point-in-time read of a Window.
type WindowStats struct {
	// Count is the number of samples inside the window.
	Count int
	// Rate is samples per second over the window span.
	Rate float64
	// Sum is the total of the sample values inside the window.
	Sum int64
	// P50, P90, P99 are exact nearest-rank percentiles of the sample values.
	P50, P90, P99 int
}

// Stats aggregates the buckets still inside the window ending at the given
// monotonic timestamp.
func (w *Window) Stats(nowNanos int64) WindowStats {
	nowEpoch := nowNanos / w.width
	minEpoch := nowEpoch - int64(len(w.buckets)) + 1
	var st WindowStats
	merged := make(map[int]int)
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch < minEpoch || b.epoch > nowEpoch {
			continue
		}
		st.Count += b.n
		st.Sum += b.sum
		for v, c := range b.hist {
			merged[v] += c
		}
	}
	st.Rate = float64(st.Count) / float64(len(w.buckets))
	if st.Count > 0 {
		st.P50 = Percentile(merged, st.Count, 50)
		st.P90 = Percentile(merged, st.Count, 90)
		st.P99 = Percentile(merged, st.Count, 99)
	}
	return st
}
