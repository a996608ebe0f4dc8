package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric: a named atomic registered in
// a Registry so it appears in the Prometheus exposition without any
// hand-threaded snapshot plumbing.  The Add path is exactly one atomic add —
// the same cost as the bespoke atomics it replaces.
type Counter struct {
	v    atomic.Uint64
	name string
}

// Add increments the counter and returns the new value.
func (c *Counter) Add(n uint64) uint64 { return c.v.Add(n) }

// Note counts one service operation and, while the default bus has a
// subscriber, emits it as a payload-free debug event of type t.  With no
// subscriber the event branch is one atomic load and nothing is built.
func (c *Counter) Note(t Type) {
	c.v.Add(1)
	if On() {
		Emit(Event{Type: t, Level: LevelDebug})
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// metric is one registry entry: a counter's own value or a gauge callback.
type metric struct {
	name, help, typ string // typ is the Prometheus TYPE: "counter" or "gauge"
	read            func() float64
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format.  Registration happens at package init time (or other
// setup paths); reads are concurrent-safe.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: make(map[string]metric)} }

// Metrics is the process-wide default registry rendered by ringd's
// Prometheus endpoint.
var Metrics = NewRegistry()

// NewCounter registers a counter in the default registry.
func NewCounter(name, help string) *Counter { return Metrics.Counter(name, help) }

// RegisterGauge registers a gauge callback in the default registry.
func RegisterGauge(name, help string, read func() float64) { Metrics.Gauge(name, help, read) }

// Counter registers and returns a new counter.  Registering a name twice
// panics: metric names are a process-wide namespace and a silent overwrite
// would make one of the two counters vanish from the exposition.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name}
	r.register(metric{name: name, help: help, typ: "counter", read: func() float64 { return float64(c.v.Load()) }})
	return c
}

// Gauge registers a gauge whose value is read through the callback at
// exposition time.  The callback must be safe for concurrent use.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.register(metric{name: name, help: help, typ: "gauge", read: read})
}

// CounterFunc registers a monotonic total whose value is read through the
// callback — for totals that already live elsewhere (a bus drop counter, an
// aggregated cache statistic) and must still expose the counter TYPE.
func (r *Registry) CounterFunc(name, help string, read func() float64) {
	r.register(metric{name: name, help: help, typ: "counter", read: read})
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[m.name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
	}
	r.metrics[m.name] = m
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name so the output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	entries := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		entries = append(entries, r.metrics[name])
	}
	r.mu.Unlock()

	for _, m := range entries {
		// Read outside the registry lock: a gauge callback may itself take
		// locks (e.g. a cache size walking its shards).
		v := m.read()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.typ, m.name, formatValue(v)); err != nil {
			return err
		}
	}
	return nil
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent or trailing zeros, everything else in shortest-float
// form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Bus fan-out accounting for the default bus, registered here so drops are
// visible in the Prometheus exposition the moment any layer starts using the
// spine.
var (
	_ = func() struct{} {
		RegisterGauge("ringsym_obs_subscribers", "Current subscribers on the default event bus.",
			func() float64 { return float64(Default.Stats().Subscribers) })
		Metrics.CounterFunc("ringsym_obs_events_published_total", "Events published to the default bus (only counted while subscribers exist).",
			func() float64 { return float64(Default.published.Load()) })
		Metrics.CounterFunc("ringsym_obs_events_dropped_total", "Events dropped by full subscriber queues on the default bus.",
			func() float64 { return float64(Default.dropped.Load()) })
		return struct{}{}
	}()
)
