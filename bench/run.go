package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// workloadNames lists the workloads in their canonical order.
var workloadNames = []string{"grid-local", "grid-fleet", "sym-cold", "sym-warm", "serve-mixed"}

// Measurement shape: untraced runs give every workload rounds slices; the
// traced run, whose slices also carry the replay, uses tracedRounds.  Each
// workload is set up setups times before the first slice (the retained heap
// is the median over these), and an untraced run sets it up timedSetups
// more times after each of its slices (the set-up time is the median over
// those).
const (
	rounds       = 10
	tracedRounds = 3
	setups       = 9
	timedSetups  = 2
)

// instance is one workload after set-up: program state ready, one warm-up
// operation done.
type instance interface {
	// measure runs one operation, then more until the deadline, and returns
	// the scenarios completed and the time they took (the timed regions
	// only).
	measure(ctx context.Context, deadline time.Time, acc *e2eAcc) (int, time.Duration, error)
	// trace runs the traced form of the workload once, then again until the
	// deadline.
	trace(ctx context.Context, deadline time.Time, acc *traceAcc) error
	// counts returns the deterministic work counts: per pass for the
	// sweeps (every pass must repeat them), per run for serve-mixed.
	counts() map[string]uint64
	close() error
}

// setUp builds one workload's program state and runs its warm-up operation.
func setUp(ctx context.Context, name string, e *env) (instance, error) {
	switch name {
	case "grid-local":
		return newGridLocal(ctx, e)
	case "grid-fleet":
		return newGridFleet(ctx, e)
	case "sym-cold":
		return newSymCold(ctx, e)
	case "sym-warm":
		return newSymWarm(ctx, e)
	case "serve-mixed":
		return newServeMixed(ctx, e)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// timedSetUp sets one workload up after a full collection, so that no
// garbage of earlier work is collected on its time, and returns the set-up
// time in seconds.
func timedSetUp(ctx context.Context, name string, e *env) (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := setUp(ctx, name, e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return in, time.Since(t0).Seconds(), nil
}

// checks counts the scenarios attempted and those whose checks failed,
// keeping the first few failure messages.
type checks struct {
	attempted, failed int64
	errs              []string
}

// fail records a failed check on n scenarios.
func (c *checks) fail(n int, format string, args ...any) {
	c.failed += int64(n)
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// e2eAcc accumulates one workload's untraced measurements.
type e2eAcc struct {
	checks
	rates     []float64 // scenarios per second, one per slice
	latencyUS []float64 // one per operation: a sweep pass or a /v1/run request
}

// results is the outcome of one benchmark run.
type results struct {
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Rounds    int               `json:"rounds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Workloads []*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Counts    map[string]uint64 `json:"counts"`
}

// run sets every requested workload up, then measures them in interleaved
// rounds: each round gives every workload one slice, the start order
// rotates, and a GC runs between slices, so drift on a shared machine lands
// on all workloads alike.
func run(ctx context.Context, cfg config) (*results, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e, err := newEnv(ctx, cfg, tmp)
	if err != nil {
		return nil, err
	}

	insts := make([]instance, len(cfg.workloads))
	defer func() {
		for _, in := range insts {
			if in != nil {
				in.close()
			}
		}
	}()
	nRounds := rounds
	if cfg.trace {
		nRounds = tracedRounds
	}
	res := &results{Seed: cfg.seed, Seconds: cfg.seconds, Rounds: nRounds, Trace: cfg.trace, Correct: true}
	setupS := make([][]float64, len(insts)) // scaled to calRef (calibrate.go)
	rawSetupS := make([][]float64, len(insts))
	calMS := make([][]float64, len(insts))
	pinned := make([]map[string]uint64, len(insts))
	for i, name := range cfg.workloads {
		wr := &workloadResult{Name: name, Metrics: map[string]metric{}}
		res.Workloads = append(res.Workloads, wr)
		var retained []float64
		for range setups {
			if insts[i] != nil {
				if err := insts[i].close(); err != nil {
					return nil, fmt.Errorf("%s: tearing down: %w", name, err)
				}
				insts[i] = nil
			}
			before := heapAlloc()
			in, _, err := timedSetUp(ctx, name, e)
			if err != nil {
				return nil, err
			}
			insts[i] = in
			retained = append(retained, (float64(heapAlloc())-float64(before))/(1<<20))
		}
		pinned[i] = insts[i].counts()
		wr.Metrics["retained_heap_mb"] = summarize(retained, "MB")
	}

	slice := time.Duration(cfg.seconds) * time.Second / time.Duration(nRounds)
	accs := make([]*e2eAcc, len(insts))
	traces := make([]*traceAcc, len(insts))
	for i := range insts {
		accs[i] = &e2eAcc{}
		traces[i] = newTraceAcc(cfg.spans != "")
	}
	for r := 0; r < nRounds; r++ {
		for k := range insts {
			i := (r + k) % len(insts)
			name := cfg.workloads[i]
			runtime.GC()
			start := time.Now()
			deadline := start.Add(slice)
			if cfg.trace {
				// The first half measures the program untraced, as an
				// untraced run does; the second half traces it.
				deadline = start.Add(slice / 2)
			}
			n, wall, err := insts[i].measure(ctx, deadline, accs[i])
			if err != nil {
				return nil, fmt.Errorf("%s: slice: %w", name, err)
			}
			accs[i].rates = append(accs[i].rates, float64(n)/wall.Seconds())
			if cfg.trace {
				if err := insts[i].trace(ctx, start.Add(slice), traces[i]); err != nil {
					return nil, fmt.Errorf("%s: traced slice: %w", name, err)
				}
				continue
			}
			// More set-ups, timed and torn down again; their counts must
			// repeat the first set-up's.  Timing set-ups after a slice
			// keeps the benchmark's reference computation out of them:
			// right after it, set-ups ran up to 2x slower for a few
			// hundred milliseconds on a 2-vCPU VM.
			for range timedSetups {
				cal := hostSpeed()
				in, d, err := timedSetUp(ctx, name, e)
				if err != nil {
					return nil, err
				}
				setupS[i] = append(setupS[i], d*calRef.Seconds()/cal.Seconds())
				rawSetupS[i] = append(rawSetupS[i], d)
				calMS[i] = append(calMS[i], float64(cal.Microseconds())/1e3)
				if got := in.counts(); !maps.Equal(got, pinned[i]) {
					accs[i].fail(1, "set-up counts %v differ from the first set-up's %v", got, pinned[i])
				}
				if err := in.close(); err != nil {
					return nil, fmt.Errorf("%s: tearing down: %w", name, err)
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	for i, wr := range res.Workloads {
		wr.Counts = insts[i].counts()
		a, t := accs[i], traces[i]
		wr.Attempted, wr.Failed, wr.Errors = a.attempted, a.failed, a.errs
		if !cfg.trace {
			wr.Metrics["setup_s"] = summarize(setupS[i], "s")
			wr.Metrics["setup_raw_s"] = summarize(rawSetupS[i], "s")
			wr.Metrics["calibration_ms"] = summarize(calMS[i], "ms")
		}
		wr.Metrics["scenarios_per_s"] = summarize(a.rates, "1/s")
		wr.Metrics["latency_p50_us"] = pooled(a.latencyUS, 0.50, "us")
		wr.Metrics["latency_p99_us"] = pooled(a.latencyUS, 0.99, "us")
		if cfg.trace {
			for k, v := range t.metrics() {
				wr.Metrics[k] = v
			}
			wr.Attempted += t.attempted
			wr.Failed += t.failed
			wr.Errors = append(wr.Errors, t.errs...)
		}
	}
	if cfg.trace && cfg.spans != "" {
		if err := writeSpans(cfg.spans, cfg.workloads, traces); err != nil {
			return nil, err
		}
	}
	for _, wr := range res.Workloads {
		if wr.Failed > 0 || wr.Attempted == 0 || len(wr.Errors) > 0 {
			res.Correct = false
		}
	}
	return res, nil
}

// heapAlloc returns the live heap after a full collection, once the
// goroutine count has settled: loopback connections of a server just closed
// or just used wind down on goroutines of their own, and the heap they hold
// belongs to no set-up.
func heapAlloc() uint64 {
	for n, k := runtime.NumGoroutine(), 0; k < 50; k++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd names the metrics of an untraced run's contract line.  They are
// the ones that repeat within their bound across separate runs on a shared
// 2-vCPU VM; the wall-clock pass metrics do not, so they are reported with
// the per-layer metrics of the traced run (and in every run's report).
var endToEnd = []string{"setup_s", "retained_heap_mb"}

// passMetrics are measured on the untraced program in every run.
var passMetrics = []string{"scenarios_per_s", "latency_p50_us", "latency_p99_us"}

// contractNames names the metrics of the contract line.
func contractNames(trace bool) []string {
	if trace {
		return append(slices.Clone(passMetrics), layerNames()...)
	}
	return endToEnd
}

// print writes the human-readable report: one line per metric per
// workload, then the check failures.  An untraced report adds the pass
// metrics, the unscaled set-up time and the calibration time.
func (r *results) print(w io.Writer, trace bool) {
	names := contractNames(trace)
	if !trace {
		names = append(slices.Clone(passMetrics), endToEnd...)
		names = append(names, "setup_raw_s", "calibration_ms")
	}
	for _, wr := range r.Workloads {
		for _, name := range names {
			m := wr.Metrics[name]
			fmt.Fprintf(w, "%-12s %-34s %14.4f %-6s n=%-6d median=%.4f p25=%.4f p75=%.4f\n",
				wr.Name, name, m.Value, m.Unit, m.N, m.Median, m.P25, m.P75)
		}
		keys := make([]string, 0, len(wr.Counts))
		for k := range wr.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "%-12s counts", wr.Name)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, wr.Counts[k])
		}
		fmt.Fprintf(w, "\n%-12s attempted=%d failed=%d\n", wr.Name, wr.Attempted, wr.Failed)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "%-12s FAILED CHECK: %s\n", wr.Name, e)
		}
	}
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]contractVal `json:"metrics"`
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract reduces the results to the last-line object: plain metric names
// for a single workload, "<workload>.<metric>" when several ran.
func (r *results) contract(trace bool) contractLine {
	out := contractLine{Correct: r.Correct, Metrics: map[string]contractVal{}}
	for _, wr := range r.Workloads {
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		for _, name := range contractNames(trace) {
			m := wr.Metrics[name]
			key := name
			if len(r.Workloads) > 1 {
				key = wr.Name + "." + name
			}
			out.Metrics[key] = contractVal{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}
