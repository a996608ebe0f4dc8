package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"time"
)

// Stages of the traced replay, one per public function called into a layer.
// The replay mirrors the campaign runner's stage order (see replay.go).
const (
	stScenario    = iota // root span: one scenario; self time is record assembly
	stGenerate           // netgen.Generate
	stTransform          // canon.Transform
	stCanonical          // canon.Canonicalize
	stFingerprint        // canon.Fingerprint
	stMemo               // memo.Cache Get/Do
	stStoreOpen          // store.Open (once per pass)
	stStoreGet           // store.Store.Get
	stDecode             // Outcome JSON decode
	stStorePut           // Outcome JSON encode + store.Store.Put
	stNetwork            // ringsym.NewNetwork / Network.Reset
	stRun                // task.Spec.Run
	stVerify             // task.Spec.Verify
	stMap                // task.Spec.MapOutcome
	stEncode             // record JSON encode
	nStages
)

var stageNames = [nStages]string{
	"campaign.scenario", "netgen.generate", "canon.transform", "canon.canonicalize",
	"canon.fingerprint", "memo.lookup", "store.open", "store.get", "store.decode",
	"store.put", "ringsym.network", "task.run", "task.verify", "task.mapoutcome",
	"campaign.encode",
}

// span is one timed call, as written to the spans file.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Scenario int    `json:"scenario"` // scenario index; -1 outside a scenario
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

type openSpan struct {
	id, stage, scenario int
	start               time.Duration
	child               time.Duration
}

// tracer records replay spans.  Replay spans nest strictly (the memo cache
// runs a computation on its own goroutine, but the caller waits for it), so
// a stack replaces any per-span map or lock.  Spans are aggregated into
// per-stage self times as they end; raw spans are kept only while keep is
// positive, so a long traced run stays bounded in memory.
type tracer struct {
	t0     time.Time
	stack  []openSpan
	nextID int
	keep   int
	spans  []span
	calls  [nStages]int
	self   [nStages]time.Duration
}

func (t *tracer) begin(stage, scenario int) {
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, stage: stage, scenario: scenario, start: time.Since(t.t0)})
}

func (t *tracer) end() {
	now := time.Since(t.t0)
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - top.start
	t.calls[top.stage]++
	t.self[top.stage] += d - top.child
	parent := 0
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.child += d
		parent = p.id
	}
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, span{ID: top.id, Parent: parent, Name: stageNames[top.stage],
			Scenario: top.scenario, Start: int64(top.start), End: int64(now)})
	}
}

// total is the sum of all recorded self times: the replay's wall time.
func (t *tracer) total() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}

// reset clears the aggregates (not the kept spans) so one pass can be
// measured on its own.
func (t *tracer) reset() {
	t.calls = [nStages]int{}
	t.self = [nStages]time.Duration{}
}

// maxSpans bounds the raw spans kept per workload for the spans file.
const maxSpans = 200_000

// traceAcc accumulates one workload's traced slices.
type traceAcc struct {
	checks
	tr    tracer
	mu    sync.Mutex // guards flat, which server goroutines append to
	flat  []span     // handler spans of serve-mixed and grid-fleet
	calls [nStages]int
	self  [nStages]time.Duration

	// The program side, measured untraced next to the replay.
	programWall   time.Duration // timed regions the replay mirrors
	programScen   int           // scenarios (or requests) in programWall
	replayWall    time.Duration // the replay's sum of stage self times
	rounds        uint64
	crossings     uint64
	mallocs       uint64
	allocBytes    uint64
	memoCalls     uint64
	memoServed    uint64 // hits + dedups + disk + peer
	memoComputes  uint64
	memoDedups    uint64
	memoEvictions uint64
	storeBytes    int64
	openWall      []float64 // ms per program store.Open
	closeWall     []float64 // ms per program store.Close

	// serve-mixed and grid-fleet.
	hitUS, missUS  []float64
	handlerUS      []float64
	transportUS    []float64
	probeMissUS    []float64
	hits, requests int
	leaseMS        []float64
	leases, passes int
	leaseBytes     int64
	taxUS          []float64
	tracedWall     time.Duration // traced time of tracedOps operations
	untracedWall   time.Duration // untraced time of untracedOps operations
	tracedOps      int
	untracedOps    int
	checkStageSum  bool      // the 15% stage-sum rule applies
	stageShares    []float64 // replay stage sum over program wall, per replayed pass
}

func newTraceAcc(keepSpans bool) *traceAcc {
	a := &traceAcc{}
	a.tr.t0 = time.Now()
	if keepSpans {
		a.tr.keep = maxSpans
	}
	return a
}

// fold moves the tracer's per-pass aggregates into the totals, records the
// replay's stage sum as a share of program, the wall time of the program
// work it mirrors, and returns the replay's wall.
func (a *traceAcc) fold(program time.Duration) time.Duration {
	w := a.tr.total()
	for i := range a.calls {
		a.calls[i] += a.tr.calls[i]
		a.self[i] += a.tr.self[i]
	}
	a.replayWall += w
	a.stageShares = append(a.stageShares, ratio(w.Seconds(), program.Seconds()))
	a.tr.reset()
	return w
}

// record adds a flat span timed outside the replay stack.
func (a *traceAcc) record(name string, start, end time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.flat) < a.tr.keep {
		a.flat = append(a.flat, span{ID: -len(a.flat) - 1, Name: name, Scenario: -1,
			Start: int64(start.Sub(a.tr.t0)), End: int64(end.Sub(a.tr.t0))})
	}
}

// layer is one per-layer metric and its unit.
type layer struct{ name, unit string }

var layers = []layer{
	{"netgen.generate_us", "us"},
	{"canon.transform_us", "us"},
	{"canon.canonicalize_us", "us"},
	{"canon.fingerprint_us", "us"},
	{"memo.lookup_us", "us"},
	{"memo.hit_ratio", "ratio"},
	{"memo.computes_per_scenario", "count"},
	{"memo.dedups_per_scenario", "count"},
	{"memo.evictions_per_scenario", "count"},
	{"store.open_ms", "ms"},
	{"store.get_us", "us"},
	{"store.decode_us", "us"},
	{"store.put_us", "us"},
	{"store.close_ms", "ms"},
	{"store.bytes_per_scenario", "B"},
	{"ringsym.network_us", "us"},
	{"task.run_us", "us"},
	{"task.verify_us", "us"},
	{"task.mapoutcome_us", "us"},
	{"campaign.encode_us", "us"},
	{"campaign.record_us", "us"},
	{"campaign.residual_us", "us"},
	{"campaign.allocs_per_scenario", "count"},
	{"campaign.alloc_bytes_per_scenario", "B"},
	{"engine.rounds_per_scenario", "count"},
	{"engine.crossings_per_scenario", "count"},
	{"engine.rounds_per_crossing", "count"},
	{"serve.hit_p50_us", "us"},
	{"serve.miss_p50_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.probe_miss_us", "us"},
	{"serve.hit_share", "ratio"},
	{"fleet.lease_ms", "ms"},
	{"fleet.leases_per_pass", "count"},
	{"fleet.bytes_per_scenario", "B"},
	{"fleet.tax_us_per_scenario", "us"},
	{"trace.stage_sum_pct", "%"},
	{"trace.overhead_pct", "%"},
}

func layerNames() []string {
	out := make([]string, len(layers))
	for i, l := range layers {
		out[i] = l.name
	}
	return out
}

// stageUS is the mean self time per call of one stage, in microseconds.
func (a *traceAcc) stageUS(stage int) float64 {
	return ratio(float64(a.self[stage].Nanoseconds())/1e3, float64(a.calls[stage]))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// metrics derives every per-layer metric.  A layer the workload never
// enters reports 0.
func (a *traceAcc) metrics() map[string]metric {
	scen := float64(a.programScen)
	progUS := ratio(float64(a.programWall.Nanoseconds())/1e3, scen)
	replayUS := ratio(float64(a.replayWall.Nanoseconds())/1e3, float64(a.calls[stScenario]))
	v := map[string]float64{
		"netgen.generate_us":                a.stageUS(stGenerate),
		"canon.transform_us":                a.stageUS(stTransform),
		"canon.canonicalize_us":             a.stageUS(stCanonical),
		"canon.fingerprint_us":              a.stageUS(stFingerprint),
		"memo.lookup_us":                    a.stageUS(stMemo),
		"memo.hit_ratio":                    ratio(float64(a.memoServed), float64(a.memoCalls)),
		"memo.computes_per_scenario":        ratio(float64(a.memoComputes), scen),
		"memo.dedups_per_scenario":          ratio(float64(a.memoDedups), scen),
		"memo.evictions_per_scenario":       ratio(float64(a.memoEvictions), scen),
		"store.open_ms":                     mean(a.openWall),
		"store.get_us":                      a.stageUS(stStoreGet),
		"store.decode_us":                   a.stageUS(stDecode),
		"store.put_us":                      a.stageUS(stStorePut),
		"store.close_ms":                    mean(a.closeWall),
		"store.bytes_per_scenario":          ratio(float64(a.storeBytes), scen),
		"ringsym.network_us":                a.stageUS(stNetwork),
		"task.run_us":                       a.stageUS(stRun),
		"task.verify_us":                    a.stageUS(stVerify),
		"task.mapoutcome_us":                a.stageUS(stMap),
		"campaign.encode_us":                a.stageUS(stEncode),
		"campaign.record_us":                a.stageUS(stScenario),
		"campaign.residual_us":              progUS - replayUS,
		"campaign.allocs_per_scenario":      ratio(float64(a.mallocs), scen),
		"campaign.alloc_bytes_per_scenario": ratio(float64(a.allocBytes), scen),
		"engine.rounds_per_scenario":        ratio(float64(a.rounds), scen),
		"engine.crossings_per_scenario":     ratio(float64(a.crossings), scen),
		"engine.rounds_per_crossing":        ratio(float64(a.rounds), float64(a.crossings)),
		"serve.hit_p50_us":                  quantile(a.hitUS, 0.5),
		"serve.miss_p50_us":                 quantile(a.missUS, 0.5),
		"serve.handler_us":                  mean(a.handlerUS),
		"serve.transport_us":                mean(a.transportUS),
		"serve.probe_miss_us":               mean(a.probeMissUS),
		"serve.hit_share":                   ratio(float64(a.hits), float64(a.requests)),
		"fleet.lease_ms":                    mean(a.leaseMS),
		"fleet.leases_per_pass":             ratio(float64(a.leases), float64(a.passes)),
		"fleet.bytes_per_scenario":          ratio(float64(a.leaseBytes), scen),
		"fleet.tax_us_per_scenario":         mean(a.taxUS),
		"trace.stage_sum_pct":               100 * quantile(a.stageShares, 0.5),
		"trace.overhead_pct":                100 * (ratio(ratio(a.tracedWall.Seconds(), float64(a.tracedOps)), ratio(a.untracedWall.Seconds(), float64(a.untracedOps))) - 1),
	}
	if a.checkStageSum {
		if pct := v["trace.stage_sum_pct"]; math.Abs(pct-100) > 15 {
			a.fail(0, "stage self times sum to %.1f%% of program wall, outside 100±15%%", pct)
		}
	}
	out := make(map[string]metric, len(layers))
	for _, l := range layers {
		out[l.name] = single(v[l.name], l.unit)
	}
	return out
}

// writeSpans writes every workload's kept spans as one JSON document.
func writeSpans(path string, names []string, accs []*traceAcc) error {
	doc := map[string][]span{}
	for i, a := range accs {
		a.mu.Lock()
		doc[names[i]] = append(append([]span(nil), a.tr.spans...), a.flat...)
		a.mu.Unlock()
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
